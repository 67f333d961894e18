package core_test

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"pmemcpy/internal/core"
	"pmemcpy/internal/mpi"
	"pmemcpy/internal/node"
	"pmemcpy/internal/pmdk"
	"pmemcpy/internal/serial"
	"pmemcpy/internal/sim"
)

// agrees holds id's variable to the media (VariableAgrees) and, when want is
// set, to knowing at least the fields of want.
func agrees(p *core.PMEM, id string, want uint32) error {
	known, err := p.VariableAgrees(id)
	switch {
	case err != nil:
		return err
	case known&want != want:
		return fmt.Errorf("%q: the variable knows fields %04b, want at least %04b", id, known, want)
	}
	return nil
}

// loadsAs checks that id loads as want, or is absent when want is nil.
func loadsAs(p *core.PMEM, id string, want *serial.Datum) error {
	d, err := p.LoadDatum(id)
	switch {
	case want == nil && !errors.Is(err, core.ErrNotFound):
		return fmt.Errorf("Load(%q) of a deleted id = %v, %v", id, d, err)
	case want != nil && (err != nil || !bytes.Equal(d.Payload, want.Payload)):
		return fmt.Errorf("Load(%q) = %v, %v; want %q", id, d, err, want.Payload)
	}
	return nil
}

// collidingIDs returns n ids whose keys share key's hashtable bucket.
func collidingIDs(key string, n int) []string {
	mask := uint64(pmdk.DefaultBuckets - 1)
	var out []string
	for i := 0; len(out) < n; i++ {
		if id := fmt.Sprintf("twin-%d", i); pmdk.HashKey(id)&mask == pmdk.HashKey(key)&mask {
			out = append(out, id)
		}
	}
	return out
}

// TestEntryHintCoherence holds the DRAM state each id's variable keeps
// (meta.go) to the media (VariableAgrees: entries to the chain they stand
// for, dims and index to fresh decodes) through every kind of record change:
// an insert, an in-place overwrite, a relinking overwrite, a Delete and a
// re-insert of the same id, an overwrite failed at each of its persists in
// turn by an injected transient (the last failure is on the commit), and an
// insert aborted by pool exhaustion, last. An array's variable is held to the
// same rule through an Alloc and a block store, a re-Alloc, a conflicting
// re-Alloc, a Delete of the id and its dims record, an Alloc with other dims
// and dtype, and a failed Delete of the dims record. The id sits fourth in its
// bucket's chain, behind three ids of the same bucket. After every case the
// id loads as the model says, every field its variable knows is the media's,
// and after a committed change it knows the id's entry. The quarantine list's
// reserved key has no fields: its writers hold no variable lock.
func TestEntryHintCoherence(t *testing.T) {
	const id = "x"
	long := stringDatum(strings.Repeat("relinked ", 16)) // past inlineMax: a value ref
	overwriteRig(t, 4<<20, func(n *node.Node, p *core.PMEM) error {
		for _, twin := range collidingIDs(id, 3) {
			if err := p.StoreDatum(twin, scalarDatum(7)); err != nil {
				return err
			}
		}
		var model *serial.Datum
		store := func(d *serial.Datum) func() error {
			return func() error {
				err := p.StoreDatum(id, d)
				if err == nil {
					model = d
				}
				return err
			}
		}
		check := func(name string, failed bool) error {
			if err := loadsAs(p, id, model); err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
			want := core.KnownEntry
			if failed {
				want = 0
			}
			if err := agrees(p, id, want); err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
			return nil
		}
		for _, c := range []struct {
			name string
			op   func() error
		}{
			{"insert", store(scalarDatum(1))},
			{"in-place overwrite", store(scalarDatum(2))},
			{"relinking overwrite", store(long)},
			{"delete", func() error {
				_, err := p.Delete(id)
				model = nil
				return err
			}},
			{"re-insert", store(scalarDatum(3))},
		} {
			if err := c.op(); err != nil {
				return fmt.Errorf("%s: %w", c.name, err)
			}
			if err := check(c.name, false); err != nil {
				return err
			}
		}

		// An array's dims record takes the variable's second entry, and its
		// decoded dims the variable's dims. After an Alloc and a block store, a
		// re-Alloc, a conflicting re-Alloc, a Delete, an Alloc with other dims
		// and dtype, and a failed Delete of the dims record, the array loads as
		// stored, the variable knows both entries and they are the walk's
		// answers, and its dims are unknown or a fresh decode of the record —
		// before LoadDims reads them, and known after. Every op but the one
		// after the Delete finds the dims known: the previous row's reads
		// installed them.
		const arr = "arr"
		for _, c := range []struct {
			name   string
			op     func() error
			dtype  serial.DType
			dims   []uint64 // LoadDims' answer after the op; nil once deleted
			failed bool     // the op's change failed: entries may be unknown
		}{
			{"Alloc + StoreBlock", func() error {
				if err := p.Alloc(arr, serial.Float64, []uint64{8}); err != nil {
					return err
				}
				return p.StoreBlock(arr, []uint64{0}, []uint64{8}, uniformF64(8, 1))
			}, serial.Float64, []uint64{8}, false},
			{"re-Alloc", func() error { return p.Alloc(arr, serial.Float64, []uint64{8}) }, serial.Float64, []uint64{8}, false},
			{"conflicting re-Alloc", func() error {
				if err := p.Alloc(arr, serial.Float64, []uint64{32}); !errors.Is(err, core.ErrTypeMismatch) {
					return fmt.Errorf("Alloc with other dims = %v, want ErrTypeMismatch", err)
				}
				return nil
			}, serial.Float64, []uint64{8}, false},
			{"Delete of both records", func() error {
				if _, err := p.Delete(arr); err != nil {
					return err
				}
				_, err := p.Delete(arr + core.DimsSuffix)
				return err
			}, 0, nil, false},
			{"Alloc with other dims and dtype + StoreBlock", func() error {
				if err := p.Alloc(arr, serial.Int64, []uint64{16}); err != nil {
					return err
				}
				return p.StoreBlock(arr, []uint64{0}, []uint64{8}, uniformF64(8, 1))
			}, serial.Int64, []uint64{16}, false},
			{"failed Delete of the dims record", func() error {
				n.Device.InjectTransient(0, 5)
				_, err := p.Delete(arr + core.DimsSuffix)
				n.Device.DisarmInjection()
				if !errors.Is(err, core.ErrMedia) {
					return fmt.Errorf("Delete failed at its first persist = %v, want ErrMedia", err)
				}
				return nil
			}, serial.Int64, []uint64{16}, true},
		} {
			if err := c.op(); err != nil {
				return fmt.Errorf("array %s: %w", c.name, err)
			}
			if err := agrees(p, arr, 0); err != nil {
				return fmt.Errorf("array %s: %w", c.name, err)
			}
			dtype, dims, err := p.LoadDims(arr)
			if c.dims == nil && !errors.Is(err, core.ErrNotFound) || c.dims != nil && (err != nil || dtype != c.dtype || !slices.Equal(dims, c.dims)) {
				return fmt.Errorf("array %s: LoadDims = %v %v, %v; want %v %v", c.name, dtype, dims, err, c.dtype, c.dims)
			}
			if known, err := p.VariableAgrees(arr); err != nil || (known&core.KnownDims != 0) != (c.dims != nil) {
				return fmt.Errorf("array %s: after LoadDims the variable knows fields %04b, %v; want the dims known exactly while the array exists", c.name, known, err)
			}
			if c.dims != nil {
				if v, err := loadUniformF64(p, arr, 8); err != nil || v != 1 {
					return fmt.Errorf("array %s: first 8 elements = %v, %v; want 1", c.name, v, err)
				}
			}
			want := core.KnownEntry | core.KnownDimsEntry
			if c.failed {
				want = 0
			}
			if err := agrees(p, arr, want); err != nil {
				return fmt.Errorf("array %s: %w", c.name, err)
			}
			// The known dims entry is the walk's answer, so it names an
			// entry exactly while the dims record exists.
			if _, present, err := p.RawValue(arr + core.DimsSuffix); !c.failed && (err != nil || present != (c.dims != nil)) {
				return fmt.Errorf("array %s: the dims record is present=%v, %v; want it exactly while the array exists", c.name, present, err)
			}
		}

		// The overwrite fails at persist k, for k = 0, 1, … until it goes
		// through: the last failure is its commit's.
		for k := int64(0); ; k++ {
			n.Device.InjectTransient(k, 5)
			err := store(stringDatum(fmt.Sprintf("attempt %d", k)))()
			n.Device.DisarmInjection()
			if err != nil && !errors.Is(err, core.ErrMedia) {
				return fmt.Errorf("overwrite failed at persist %d: %w", k, err)
			}
			if err := check(fmt.Sprintf("overwrite failed at persist %d", k), err != nil); err != nil {
				return err
			}
			if err == nil {
				if k == 0 {
					return fmt.Errorf("no injected failure reached the overwrite")
				}
				break
			}
		}

		// Quarantine a block and read the list through its record: the walk
		// finds the reserved key, and its variable knows nothing.
		if err := p.StoreDatum("victim", long); err != nil {
			return err
		}
		if _, _, err := p.InjectCorruption("victim", -1, 3, 1, 0x80); err != nil {
			return err
		}
		if rep, err := p.Scrub(t.Context()); err != nil || rep.Quarantined != 1 {
			return fmt.Errorf("Scrub = %v, %v; want one block quarantined", rep, err)
		}
		p.VerifyStore()
		known, err := p.VariableAgrees("#quarantine")
		if _, present, rerr := p.RawValue("#quarantine"); err != nil || known != 0 || rerr != nil || !present {
			return fmt.Errorf("#quarantine: fields %04b, %v; present %v, %v; want no field of a present key", known, err, present, rerr)
		}
		// Delete the id and fill the pool: the re-insert's record change
		// cannot allocate and aborts.
		if _, err := p.Delete(id); err != nil {
			return err
		}
		model = nil
		// The fill's keys are as short as the id's, so its entries take the
		// id's size class.
		for _, d := range []*serial.Datum{{Type: serial.Bytes, Payload: make([]byte, 64<<10)}, scalarDatum(8)} {
			for i := 0; p.StoreDatum(fmt.Sprintf("f%d-%d", len(d.Payload), i), d) == nil; i++ {
			}
		}
		if err := store(scalarDatum(4))(); !errors.Is(err, pmdk.ErrNoSpace) {
			return fmt.Errorf("insert into a full pool: %v, want pmdk.ErrNoSpace", err)
		}
		if err := check("insert aborted by exhaustion", true); err != nil {
			return err
		}

		return nil
	})
}

// TestEntryHintRace runs two ranks loading, overwriting and deleting
// overlapping ids, with values of many lengths so overwrites go in place,
// relink and move between the inline and value-ref forms. Every load must
// return a value some rank stored under that id, and at the end every id's
// variable agrees with the media (VariableAgrees). Under -race (make race) it
// also holds the entry installs under the read lock to being race-free.
func TestEntryHintRace(t *testing.T) {
	const (
		ranks = 2
		nids  = 6
		ops   = 300
	)
	n := node.New(sim.DefaultConfig(), 64<<20)
	n.Machine.SetConcurrency(ranks)
	idOf := func(i int) string { return fmt.Sprintf("shared-%d", i) }
	_, err := mpi.Run(n.Machine, ranks, func(c *mpi.Comm) error {
		p, err := core.Mmap(c, n, "/hint.pool")
		if err != nil {
			return err
		}
		rng := rand.New(rand.NewSource(int64(c.Rank() + 1)))
		for op := 0; op < ops; op++ {
			id := idOf(rng.Intn(nids))
			switch r := rng.Intn(8); {
			case r < 3:
				v := id + "=" + strings.Repeat("v", rng.Intn(200))
				if err := p.StoreString(id, v); err != nil {
					return fmt.Errorf("rank %d store %s: %w", c.Rank(), id, err)
				}
			case r < 7:
				s, err := p.LoadString(id)
				if errors.Is(err, core.ErrNotFound) {
					continue
				}
				if err != nil || !strings.HasPrefix(s, id+"=") {
					return fmt.Errorf("rank %d load %s = %.20q, %v", c.Rank(), id, s, err)
				}
			default:
				if _, err := p.Delete(id); err != nil {
					return fmt.Errorf("rank %d delete %s: %w", c.Rank(), id, err)
				}
			}
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		if c.Rank() == 0 {
			for i := 0; i < nids; i++ {
				if err := agrees(p, idOf(i), 0); err != nil {
					return err
				}
			}
		}
		return p.Munmap()
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestDimsSlotRace re-declares an array's dims round after round — rank 0
// deletes the dims record and declares float64 [8] or int64 [16], so the
// variable forgets its dims and its index — and then has both ranks read the
// dims, load a block, take the range and store the block, at once: each
// round's first LoadDims races the other rank to install the dims, and each
// LoadBlock and MinMax to install the index the re-declaration or a store
// made the variable forget. LoadDims must only ever
// answer one of the two declarations, never a mix, the range is the stored
// zeros', and at the end the variable knows its dims and index and agrees
// with the media (VariableAgrees). Under -race (make race) it also checks
// every install and clear the run makes for unsynchronized accesses.
func TestDimsSlotRace(t *testing.T) {
	const (
		ranks  = 2
		rounds = 300
		reads  = 4
		id     = "arr"
	)
	n := node.New(sim.DefaultConfig(), 64<<20)
	n.Machine.SetConcurrency(ranks)
	_, err := mpi.Run(n.Machine, ranks, func(c *mpi.Comm) error {
		p, err := core.Mmap(c, n, "/slot.pool")
		if err != nil {
			return err
		}
		buf := make([]byte, 64)
		if c.Rank() == 0 {
			if err := p.Alloc(id, serial.Float64, []uint64{8}); err != nil {
				return err
			}
			if err := p.StoreBlock(id, []uint64{0}, []uint64{8}, buf); err != nil {
				return err
			}
		}
		for round := 0; round < rounds; round++ {
			if c.Rank() == 0 {
				dtype, dims := serial.Float64, []uint64{8}
				if round%2 == 1 {
					dtype, dims = serial.Int64, []uint64{16}
				}
				if _, err := p.Delete(id + core.DimsSuffix); err != nil {
					return err
				}
				if err := p.Alloc(id, dtype, dims); err != nil {
					return fmt.Errorf("round %d Alloc: %w", round, err)
				}
			}
			if err := c.Barrier(); err != nil {
				return err
			}
			for r := 0; r < reads; r++ {
				dtype, dims, err := p.LoadDims(id)
				if err != nil || !(dtype == serial.Float64 && slices.Equal(dims, []uint64{8}) ||
					dtype == serial.Int64 && slices.Equal(dims, []uint64{16})) {
					return fmt.Errorf("round %d rank %d: LoadDims = %v %v, %v: no declaration made that", round, c.Rank(), dtype, dims, err)
				}
				if err := p.LoadBlock(id, []uint64{0}, []uint64{8}, buf); err != nil {
					return fmt.Errorf("round %d rank %d LoadBlock: %w", round, c.Rank(), err)
				}
				if mn, mx, err := p.MinMax(id); err != nil || mn != 0 || mx != 0 {
					return fmt.Errorf("round %d rank %d MinMax = %v, %v, %v; want the stored zeros", round, c.Rank(), mn, mx, err)
				}
				if err := p.StoreBlock(id, []uint64{0}, []uint64{8}, buf); err != nil {
					return fmt.Errorf("round %d rank %d StoreBlock: %w", round, c.Rank(), err)
				}
			}
			if err := c.Barrier(); err != nil {
				return err
			}
		}
		if c.Rank() == 0 {
			if err := p.LoadBlock(id, []uint64{0}, []uint64{8}, buf); err != nil {
				return err
			}
			if err := agrees(p, id, core.KnownDims|core.KnownIndex); err != nil {
				return fmt.Errorf("after the rounds: %w", err)
			}
		}
		return p.Munmap()
	})
	if err != nil {
		t.Fatal(err)
	}
}
