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

// hintAgrees checks key's entry hint against an unhinted walk: the hint is
// the walk's answer, or 0 when exact is false.
func hintAgrees(p *core.PMEM, key string, exact bool) error {
	hint, walk, err := p.EntryHint(key)
	switch {
	case err != nil:
		return err
	case hint != walk && (exact || hint != 0):
		return fmt.Errorf("%q: hint %d, the walk finds %d", key, hint, walk)
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

// TestEntryHintCoherence holds the entry hint each id's variable keeps
// (meta.go) to the chain it stands for, through every kind of record change:
// an insert, an in-place overwrite, a relinking overwrite, a Delete and a
// re-insert of the same id, an overwrite failed at each of its persists in
// turn by an injected transient (the last failure is on the commit), and an
// insert aborted by pool exhaustion, last. An array's "#dims" hint is held to
// the same rule through an Alloc and a block store, a re-Alloc, a Delete of
// the id and its dims record, and an Alloc with other dims. The id sits
// fourth in its bucket's chain, behind three ids of the same bucket. After
// every case the id loads as the model says, and its hint is exactly the
// entry an unhinted walk finds after a committed change, that entry or 0
// after a failed one. The quarantine list's reserved key is never hinted: its
// writers hold no variable lock.
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
			if err := hintAgrees(p, id, !failed); err != nil {
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

		// An array's dims record takes the second hint slot. After an Alloc
		// and a block store, a re-Alloc with other dims and a Delete, the
		// array loads as stored and both its hints are the walk's answers.
		const arr = "arr"
		for _, c := range []struct {
			name string
			op   func() error
			dims []uint64 // LoadDims' answer after the op; nil once deleted
		}{
			{"Alloc + StoreBlock", func() error {
				if err := p.Alloc(arr, serial.Float64, []uint64{8}); err != nil {
					return err
				}
				return p.StoreBlock(arr, []uint64{0}, []uint64{8}, uniformF64(8, 1))
			}, []uint64{8}},
			{"re-Alloc", func() error { return p.Alloc(arr, serial.Float64, []uint64{8}) }, []uint64{8}},
			{"Delete of both records", func() error {
				if _, err := p.Delete(arr); err != nil {
					return err
				}
				_, err := p.Delete(arr + core.DimsSuffix)
				return err
			}, nil},
			{"Alloc with other dims + StoreBlock", func() error {
				if err := p.Alloc(arr, serial.Float64, []uint64{16}); err != nil {
					return err
				}
				return p.StoreBlock(arr, []uint64{0}, []uint64{8}, uniformF64(8, 1))
			}, []uint64{16}},
		} {
			if err := c.op(); err != nil {
				return fmt.Errorf("array %s: %w", c.name, err)
			}
			_, dims, err := p.LoadDims(arr)
			if c.dims == nil && !errors.Is(err, core.ErrNotFound) || c.dims != nil && (err != nil || !slices.Equal(dims, c.dims)) {
				return fmt.Errorf("array %s: LoadDims = %v, %v; want %v", c.name, dims, err, c.dims)
			}
			if c.dims != nil {
				if v, err := loadUniformF64(p, arr, 8); err != nil || v != 1 {
					return fmt.Errorf("array %s: first 8 elements = %v, %v; want 1", c.name, v, err)
				}
			}
			for _, key := range []string{arr, arr + core.DimsSuffix} {
				if err := hintAgrees(p, key, true); err != nil {
					return fmt.Errorf("array %s: %w", c.name, err)
				}
			}
			if hint, _, _ := p.EntryHint(arr + core.DimsSuffix); (hint != 0) != (c.dims != nil) {
				return fmt.Errorf("array %s: dims hint %d, want one exactly while the array exists", c.name, hint)
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
		// finds the reserved key, and it holds no hint.
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
		if hint, walk, err := p.EntryHint("#quarantine"); err != nil || hint != 0 || walk == 0 {
			return fmt.Errorf("#quarantine: hint %d, walk %d, %v; want no hint on a present key", hint, walk, err)
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
// hint is the walk's answer or 0. Under -race (make race) it also holds the
// hint's stores under the read lock to being race-free.
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
				if err := hintAgrees(p, idOf(i), false); err != nil {
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
