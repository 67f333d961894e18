package core_test

// Tests of the overwrite: a whole value published over a whole value frees the
// block it shadows in the publishing transaction (writeplan.go publishGroup).
// The crash explorer, a media-error sweep, allocator exhaustion, an open view
// lease, and the steady state — each asserting old-or-new bytes AND that the
// allocator agrees with the record about who owns which block.

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"pmemcpy/internal/bytesview"
	"pmemcpy/internal/core"
	"pmemcpy/internal/mpi"
	"pmemcpy/internal/node"
	"pmemcpy/internal/pmdk"
	"pmemcpy/internal/pmem"
	"pmemcpy/internal/serial"
	"pmemcpy/internal/sim"
)

func scalarDatum(v int64) *serial.Datum {
	return &serial.Datum{Type: serial.Int64, Payload: bytesview.Bytes([]int64{v})}
}

func stringDatum(s string) *serial.Datum {
	return &serial.Datum{Type: serial.Bytes, Payload: []byte(s)}
}

// namedBlock returns the PMID the whole-value record of id names: a value
// ref's block (tag | pmid u64 | …), or 0 for an inline value, whose bytes live
// in the record, and for an absent id — neither names a block.
func namedBlock(p *core.PMEM, id string) (int64, error) {
	raw, ok, err := p.RawValue(id)
	switch {
	case err != nil:
		return 0, err
	case !ok || raw[0] == 0xA8:
		return 0, nil
	case raw[0] == 0xA7 && len(raw) == 21:
		return int64(binary.LittleEndian.Uint64(raw[1:])), nil
	}
	return 0, fmt.Errorf("record of %q: % x is no whole value", id, raw)
}

// owStep is one step of a record-change script: store val under id or — nil —
// delete id, or store id's whole extent again (full), which drops every block
// its list names. The id "A" is the script's one-block array instead: the step
// overwrites it.
type owStep struct {
	id   string
	val  *serial.Datum
	full bool
}

// arrayState is what an array of a record-change script holds: its block
// list (every element 1), a whole value stored over it, or — neither — no
// record at all.
type arrayState struct {
	list  bool
	datum *serial.Datum
}

// valueScript stores first — whole values, and each of arrays as a
// 16-element array stored in four blocks, every element 1, the whole-extent
// third dropping the two before it — then runs steps. Run notes
// which step is in flight and which blocks that step's record named going in,
// so Verify can hold the recovered allocator to the recovered record: every id
// reads as it did before or after the step in flight (never a mix, and absent
// only where a delete says so), every block a record names is allocated and
// named once, and
// each block the in-flight step's record named going in and names no longer is
// free — no crash point leaks one. On a namespace of several pools the last
// check covers the id's home pool: a sharded store's stripes elsewhere are
// freed after the commit, a window the mark of ROADMAP item 15 is to close (every store here is serial, so every block is the home pool's).
func valueScript(name string, first map[string]*serial.Datum, arrays []string, steps []owStep) core.Script {
	const elems, arrElems = 32, 16
	var (
		inflight int        // index into steps; len(steps) once Run completed
		pre      [][2]int64 // the blocks the in-flight step's record named before it
	)
	storeA := func(p *core.PMEM, v float64) error {
		if err := p.Alloc("A", serial.Float64, []uint64{elems}); err != nil {
			return err
		}
		return p.StoreBlock("A", []uint64{0}, []uint64{elems}, uniformF64(elems, v))
	}
	storeArray := func(p *core.PMEM, id string) error {
		if err := p.Alloc(id, serial.Float64, []uint64{arrElems}); err != nil {
			return err
		}
		for _, r := range [][2]uint64{{0, 8}, {8, 8}, {0, arrElems}, {4, 4}} {
			if err := p.StoreBlock(id, r[:1], r[1:], uniformF64(int(r[1]), 1)); err != nil {
				return err
			}
		}
		return nil
	}
	same := func(d, want *serial.Datum) bool {
		return (d == nil) == (want == nil) && (d == nil || bytes.Equal(d.Payload, want.Payload))
	}
	// holds reports whether array id holds st, or why it cannot tell.
	holds := func(p *core.PMEM, id string, st arrayState) (bool, error) {
		switch {
		case st.list:
			v, err := loadUniformF64(p, id, arrElems)
			return err == nil && v == 1, err
		case st.datum == nil:
			_, ok, err := p.RawValue(id)
			return !ok, err
		}
		d, err := p.LoadDatum(id)
		return err == nil && same(d, st.datum), err
	}
	return core.Script{
		Name:    name,
		DevSize: 8 << 20,
		Setup: func(p *core.PMEM) error {
			inflight = 0
			for id, v := range first {
				if err := p.StoreDatum(id, v); err != nil {
					return err
				}
			}
			for _, id := range arrays {
				if err := storeArray(p, id); err != nil {
					return err
				}
			}
			return storeA(p, 1)
		},
		Run: func(p *core.PMEM) error {
			for i, st := range steps {
				inflight = i
				var err error
				if pre, err = p.NamedBlocks(st.id); err != nil {
					return err
				}
				switch {
				case st.id == "A":
					err = storeA(p, 2)
				case st.full:
					err = p.StoreBlock(st.id, []uint64{0}, []uint64{arrElems}, uniformF64(arrElems, 1))
				case st.val == nil:
					_, err = p.Delete(st.id)
				default:
					err = p.StoreDatum(st.id, st.val)
				}
				if err != nil {
					return err
				}
			}
			inflight = len(steps)
			return nil
		},
		Verify: func(p *core.PMEM) error {
			// oldNew folds the steps up to the one in flight over id: what it
			// held before that step, and whether that step is id's.
			oldNew := func(id string, apply func(st owStep, pending bool)) {
				for i, st := range steps[:min(inflight+1, len(steps))] {
					if st.id == id {
						apply(st, i == inflight)
					}
				}
			}
			for id, old := range first {
				var next *serial.Datum
				pending := false
				oldNew(id, func(st owStep, p bool) {
					if pending = p; p {
						next = st.val
					} else {
						old = st.val
					}
				})
				d, err := p.LoadDatum(id)
				if err != nil && !errors.Is(err, core.ErrNotFound) {
					return fmt.Errorf("%s: %w", id, err)
				}
				if !(pending && same(d, next)) && !same(d, old) {
					return fmt.Errorf("%s = %v with step %d in flight (pending=%v): neither old nor new", id, d, inflight, pending)
				}
			}
			for _, id := range arrays {
				old, next := arrayState{list: true}, arrayState{}
				pending := false
				oldNew(id, func(st owStep, p bool) {
					s := arrayState{list: st.full, datum: st.val}
					if pending = p; p {
						next = s
					} else {
						old = s
					}
				})
				isOld, err := holds(p, id, old)
				if !isOld && pending {
					var isNew bool
					if isNew, err = holds(p, id, next); isNew {
						continue
					}
				}
				if !isOld {
					return fmt.Errorf("array %s is neither %+v nor %+v with step %d in flight: %w", id, old, next, inflight, err)
				}
			}
			aNew := false
			for i, st := range steps {
				aNew = aNew || (st.id == "A" && i < inflight)
			}
			a, err := loadUniformF64(p, "A", elems)
			if err != nil {
				return err
			}
			if a != 2 && (a != 1 || aNew) {
				return fmt.Errorf("A = all %g with step %d in flight", a, inflight)
			}
			// The allocator agrees with the records.
			if err := ownedOnce(p); err != nil {
				return err
			}
			if inflight == len(steps) {
				return nil
			}
			id := steps[inflight].id
			named, err := p.NamedBlocks(id)
			if err != nil {
				return err
			}
			for _, b := range pre {
				if int(b[0]) == p.HomePool(id) && !slices.Contains(named, b) && p.BlockAllocated(int(b[0]), b[1]) {
					return fmt.Errorf("%s no longer names block %v but it is still allocated (step %d in flight): leaked", id, b, inflight)
				}
			}
			return nil
		},
	}
}

// blobDatum is a whole value too large to be inlined under any codec.
func blobDatum(v byte) *serial.Datum {
	return &serial.Datum{Type: serial.Bytes, Payload: bytes.Repeat([]byte{v}, 200)}
}

// exploreOverwriteScript overwrites whole values too large to live in their
// records, so every step moves a block: a 200-byte blob three times (a new
// block of the old one's class; the 21-byte value ref rewritten in place), a
// string twice (into another size class and back), then a stored array.
func exploreOverwriteScript() core.Script {
	long := func(s string, n int) *serial.Datum { return stringDatum(strings.Repeat(s, n)) }
	return valueScript("overwrite",
		map[string]*serial.Datum{"s": blobDatum(1), "name": long("an old name, ", 10)}, nil,
		[]owStep{{id: "s", val: blobDatum(2)}, {id: "s", val: blobDatum(3)}, {id: "s", val: blobDatum(4)},
			{id: "name", val: long("a much longer name ", 30)}, {id: "name", val: long("a shorter one ", 9)}, {id: "A"}})
}

// exploreInlineScript is every transition of the inline form: a scalar three
// times (rewritten in place), a string to another length and back (the record
// relinked), a string grown past inlineMax (inline to value ref) and shrunk
// again (value ref to inline: the block freed in the publishing transaction),
// a scalar deleted and re-inserted.
func exploreInlineScript() core.Script {
	big := stringDatum(strings.Repeat("past the inline limit ", 8))
	return valueScript("inline",
		map[string]*serial.Datum{"s": scalarDatum(1), "name": stringDatum("old-name"), "grow": stringDatum("small"), "gone": scalarDatum(7)}, nil,
		[]owStep{{id: "s", val: scalarDatum(2)}, {id: "s", val: scalarDatum(3)}, {id: "s", val: scalarDatum(4)},
			{id: "name", val: stringDatum("a longer name, still inline")}, {id: "name", val: stringDatum("old-name")},
			{id: "grow", val: big}, {id: "grow", val: stringDatum("small again")},
			{id: "gone"}, {id: "gone", val: scalarDatum(8)}})
}

// exploreRecordChangeScript is every record change that drops blocks: an
// array's block list deleted, one overwritten whole (both its blocks
// dropped), a whole value stored over a third, and a value ref deleted.
func exploreRecordChangeScript(pools int) core.Script {
	s := valueScript(fmt.Sprintf("record-change/pools=%d", pools),
		map[string]*serial.Datum{"v": blobDatum(1)}, []string{"D", "C", "W"},
		[]owStep{{id: "D"}, {id: "C", full: true}, {id: "W", val: scalarDatum(5)}, {id: "v"}})
	s.Pools = pools
	return s
}

// exploreModes is lose-all, keep-all and eight random cache-loss draws; with
// the torn store the explorer adds, 11 adversaries at every persist point.
func exploreModes() []pmem.CrashMode {
	modes := []pmem.CrashMode{pmem.CrashLoseAll, pmem.CrashKeepAll}
	for i := 0; i < 8; i++ {
		modes = append(modes, pmem.CrashRandom)
	}
	return modes
}

// TestExploreOverwrite crashes the overwrite script at EVERY persist point
// under the 11 adversaries; the explorer adds fsck (Pool.Verify +
// Hashtable.Verify), the CRC deep check and VerifyStore to the script's own
// checks.
func TestExploreOverwrite(t *testing.T) {
	rep := runExplore(t, exploreOverwriteScript(), core.ExploreOptions{Modes: exploreModes(), Tear: true})
	if rep.Detected != 0 {
		t.Errorf("%d simulations recovered to detected corruption", rep.Detected)
	}
}

// TestExploreRecordChange crashes the record-change script at every persist
// point under the 11 adversaries, on one pool and on four: every point
// recovers to the old or the new record with no block leaked.
func TestExploreRecordChange(t *testing.T) {
	for _, pools := range []int{1, 4} {
		t.Run(fmt.Sprintf("pools=%d", pools), func(t *testing.T) {
			rep := runExplore(t, exploreRecordChangeScript(pools), core.ExploreOptions{Modes: exploreModes(), Tear: true})
			if rep.Detected != 0 {
				t.Errorf("%d simulations recovered to detected corruption", rep.Detected)
			}
		})
	}
}

// TestExploreInline does the same to the inline script. An in-place overwrite
// is three persists — undo entry, record, lane close — and a torn or lost
// record line must roll back to the old bytes and CRC, never mix with the new.
func TestExploreInline(t *testing.T) {
	rep := runExplore(t, exploreInlineScript(), core.ExploreOptions{Modes: exploreModes(), Tear: true})
	if rep.Detected != 0 {
		t.Errorf("%d simulations recovered to detected corruption", rep.Detected)
	}
}

// overwriteRig maps a store on a fresh node of the given size and runs fn on
// it as rank 0.
func overwriteRig(t *testing.T, devSize int64, fn func(n *node.Node, p *core.PMEM) error, opts ...core.MmapOption) {
	t.Helper()
	n := node.New(sim.DefaultConfig(), devSize)
	n.Machine.SetConcurrency(1)
	_, err := mpi.Run(n.Machine, 1, func(c *mpi.Comm) error {
		p, err := core.Mmap(c, n, "/overwrite.pool", opts...)
		if err != nil {
			return err
		}
		if err := fn(n, p); err != nil {
			return err
		}
		return p.Munmap()
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestOverwriteMediaErrorSweep fails every persist of an overwriting store in
// turn with an uncorrectable media error, until one goes through — for each
// pair of record forms: a scalar over a scalar (inline, rewritten in place:
// three persists), a string grown past inlineMax (inline to value ref), shrunk
// back (value ref to inline), and a large value over a large value in another
// size class. Each failure wraps ErrMedia and leaves the old value published —
// over an allocated block when it names one; the handle goes on working.
func TestOverwriteMediaErrorSweep(t *testing.T) {
	long := stringDatum(strings.Repeat("new and longer ", 8))
	for _, tc := range []struct {
		name     string
		old, new *serial.Datum
		persists int64 // the fewest the overwrite can take
	}{
		{"scalar", scalarDatum(1), scalarDatum(2), 3},
		{"string", stringDatum("old"), long, 10},
		{"shrink", long, stringDatum("old"), 10},
		{"large", blobDatum(1), long, 10},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for k := int64(0); ; k++ {
				failed := false
				overwriteRig(t, 16<<20, func(n *node.Node, p *core.PMEM) error {
					if err := p.StoreDatum("v", tc.old); err != nil {
						return err
					}
					oldBlk, err := namedBlock(p, "v")
					if err != nil {
						return err
					}
					n.Device.InjectTransient(k, 5)
					err = p.StoreDatum("v", tc.new)
					n.Device.DisarmInjection()
					want := tc.new
					if failed = err != nil; failed {
						if !errors.Is(err, core.ErrMedia) {
							return fmt.Errorf("persist %d: error %q does not wrap ErrMedia", k, err)
						}
						if blk, _ := namedBlock(p, "v"); blk != oldBlk || (oldBlk != 0 && !p.BlockAllocated(0, oldBlk)) {
							return fmt.Errorf("persist %d: after the failed store the record names %d (was %d), allocated=%v",
								k, blk, oldBlk, p.BlockAllocated(0, oldBlk))
						}
						want = tc.old
					} else if oldBlk != 0 && p.BlockAllocated(0, oldBlk) {
						return fmt.Errorf("the overwrite went through but the block it shadows, %d, is still allocated", oldBlk)
					}
					if d, err := p.LoadDatum("v"); err != nil || !bytes.Equal(d.Payload, want.Payload) {
						return fmt.Errorf("persist %d (failed=%v): Load = (%v, %v)", k, failed, d, err)
					}
					if vs := p.VerifyStore(); len(vs) != 0 {
						return fmt.Errorf("persist %d: store violations: %v", k, vs)
					}
					for i := 0; i < 8; i++ {
						if err := p.StoreDatum("v", scalarDatum(int64(i))); err != nil {
							return fmt.Errorf("persist %d: follow-up store: %w", k, err)
						}
					}
					return nil
				})
				if !failed {
					if k < tc.persists {
						t.Errorf("the overwrite finished in %d persists; the sweep missed its commits", k)
					}
					break
				}
			}
		})
	}
}

// TestOverwriteExhaustionKeepsOldValue is the abort contract on allocator
// exhaustion mid-overwrite: an overwrite that cannot reserve its block fails
// before any pool transaction (none runs, none aborts), reclaims nothing, and
// leaves the old value published and readable. Then the other half of the same fact: in a pool filled to the
// brim, overwrites of an existing value keep succeeding once there is room for
// ONE new block, because each frees the block it shadows.
func TestOverwriteExhaustionKeepsOldValue(t *testing.T) {
	overwriteRig(t, 4<<20, func(_ *node.Node, p *core.PMEM) error {
		payload := func(b byte) *serial.Datum {
			return &serial.Datum{Type: serial.Bytes, Payload: bytes.Repeat([]byte{b}, 64<<10)}
		}
		check := func(want byte) error {
			d, err := p.LoadDatum("V")
			if err != nil || len(d.Payload) != 64<<10 || d.Payload[0] != want || d.Payload[len(d.Payload)-1] != want {
				return fmt.Errorf("V does not read back as all %q: %v", want, err)
			}
			return nil
		}
		if err := p.StoreDatum("V", payload('a')); err != nil {
			return err
		}
		before := p.Metrics()
		huge := &serial.Datum{Type: serial.Bytes, Payload: make([]byte, 8<<20)}
		if err := p.StoreDatum("V", huge); err == nil {
			return fmt.Errorf("an 8 MB overwrite fit a 4 MB device")
		}
		after := p.Metrics()
		delta := func(name string) int64 { return after.Get(name) - before.Get(name) }
		txs, aborts, frees := delta("pmemcpy_alloc_transactions_total"), delta("pmemcpy_alloc_aborts_total"),
			delta("pmemcpy_alloc_frees_total")
		if txs != 0 || aborts != 0 || frees != 0 {
			return fmt.Errorf("failed overwrite: transactions +%d, aborts +%d, frees +%d; want none", txs, aborts, frees)
		}
		if got := p.Metrics().Get("pmemcpy_superseded_blocks_total"); got != 0 {
			return fmt.Errorf("failed overwrite reclaimed %d blocks", got)
		}
		if err := check('a'); err != nil {
			return err
		}

		fills := 0
		for ; ; fills++ {
			if err := p.StoreDatum(fmt.Sprintf("fill-%d", fills), payload('f')); err != nil {
				break
			}
		}
		if fills == 0 {
			return fmt.Errorf("pool was full before the fill")
		}
		if err := p.StoreDatum("V", payload('b')); err == nil {
			return fmt.Errorf("overwrite in a full pool succeeded")
		}
		if err := check('a'); err != nil {
			return fmt.Errorf("after the overwrite a full pool refused: %w", err)
		}
		if _, err := p.Delete("fill-0"); err != nil {
			return err
		}
		for i := 0; i < 32; i++ {
			if err := p.StoreDatum("V", payload('b'+byte(i))); err != nil {
				return fmt.Errorf("overwrite %d with room for one block: %w", i, err)
			}
		}
		if vs := p.VerifyStore(); len(vs) != 0 {
			return fmt.Errorf("store violations: %v", vs)
		}
		return check('b' + 31)
	})
}

// TestViewHeldAcrossOverwrite holds a zero-copy view open across whole-value
// overwrites: with a lease open the publish frees nothing in its transaction —
// the shadowed blocks are parked on the limbo, counted in
// pmemcpy_view_deferred_frees_total, and freed when the view closes — and the
// view's bytes stay what they were, even when the array under it is itself
// overwritten and its aliased block dropped. Four overwrites shadow a block (value ref over value ref twice,
// into another size class, and an inline value over a value ref); an inline
// value over an inline one owns nothing to park.
func TestViewHeldAcrossOverwrite(t *testing.T) {
	const elems = 1024
	overwriteRig(t, 16<<20, func(_ *node.Node, p *core.PMEM) error {
		if err := p.Alloc("A", serial.Float64, []uint64{elems}); err != nil {
			return err
		}
		if err := p.StoreBlock("A", []uint64{0}, []uint64{elems}, uniformF64(elems, 1)); err != nil {
			return err
		}
		for id, d := range map[string]*serial.Datum{
			"s": blobDatum(1), "name": stringDatum(strings.Repeat("old ", 40)),
			"shrink": blobDatum(1), "tiny": scalarDatum(1),
		} {
			if err := p.StoreDatum(id, d); err != nil {
				return err
			}
		}
		sBlk, err := namedBlock(p, "s")
		if err != nil {
			return err
		}
		v, err := p.LoadBlockView("A", []uint64{0}, []uint64{elems})
		if err != nil {
			return err
		}
		if !v.ZeroCopy() {
			return fmt.Errorf("view of a single raw block is not zero-copy")
		}
		freesBefore := p.Metrics().Get("pmemcpy_alloc_frees_total")
		for _, err := range []error{
			p.StoreDatum("tiny", scalarDatum(2)),
			p.StoreDatum("s", blobDatum(2)),
			p.StoreDatum("s", blobDatum(3)),
			p.StoreDatum("name", stringDatum(strings.Repeat("longer ", 80))),
			p.StoreDatum("shrink", scalarDatum(3)),
		} {
			if err != nil {
				return err
			}
		}
		m := p.Metrics()
		held, limbo := m.Get("pmemcpy_alloc_frees_total"), m.Get("pmemcpy_view_limbo_blocks")
		if held != freesBefore+1 || limbo != 4 || m.Get("pmemcpy_view_deferred_frees_total") != 4 ||
			m.Get("pmemcpy_superseded_blocks_total") != 4 || !p.BlockAllocated(0, sBlk) {
			return fmt.Errorf("with the view open: frees +%d, limbo %d, deferred %d, superseded %d, first shadowed block allocated=%v; want +1 (the record block the shrink relinked), 4, 4, 4, true",
				held-freesBefore, limbo, m.Get("pmemcpy_view_deferred_frees_total"),
				m.Get("pmemcpy_superseded_blocks_total"), p.BlockAllocated(0, sBlk))
		}
		// The array under the view is itself overwritten: the store drops the
		// aliased block, which parks beside the others.
		if err := p.StoreBlock("A", []uint64{0}, []uint64{elems}, uniformF64(elems, 2)); err != nil {
			return err
		}
		m = p.Metrics()
		if held, limbo = m.Get("pmemcpy_alloc_frees_total"), m.Get("pmemcpy_view_limbo_blocks"); limbo != 5 {
			return fmt.Errorf("the overwrite of A under the view left limbo at %d, want 5", limbo)
		}
		data, err := v.Bytes()
		if err != nil {
			return err
		}
		if !bytes.Equal(data, uniformF64(elems, 1)) {
			return fmt.Errorf("the view's bytes changed under an overwrite")
		}
		if a, err := loadUniformF64(p, "A", elems); err != nil || a != 2 {
			return fmt.Errorf("a fresh load of A = (%g, %v), want the new value", a, err)
		}
		if err := v.Close(); err != nil {
			return err
		}
		m = p.Metrics()
		closed, limbo := m.Get("pmemcpy_alloc_frees_total"), m.Get("pmemcpy_view_limbo_blocks")
		if limbo != 0 || closed-held != 5 || p.BlockAllocated(0, sBlk) {
			return fmt.Errorf("after Close: limbo %d, frees +%d, first shadowed block allocated=%v; want 0, +5, false",
				limbo, closed-held, p.BlockAllocated(0, sBlk))
		}
		for id, want := range map[string]*serial.Datum{"s": blobDatum(3), "shrink": scalarDatum(3), "tiny": scalarDatum(2)} {
			if d, err := p.LoadDatum(id); err != nil || !bytes.Equal(d.Payload, want.Payload) {
				return fmt.Errorf("%s after the view closed: %v, %v", id, d, err)
			}
		}
		return nil
	}, core.WithCodec("raw"))
}

// TestOverwriteSteadyStateLeakFree overwrites 64 scalar, 64 string and 64
// "flip" ids on one handle 10 000 times; a flip id alternates between a value
// that lives in its record and one that needs a block, half of them each way in
// every pass. Once every id has been overwritten in both directions (each
// overwrite allocates its new block before the publish frees the old one, so
// the first passes may still carve), the heap does not grow by a byte and the
// number of live allocator blocks never moves.
func TestOverwriteSteadyStateLeakFree(t *testing.T) {
	overwriteRig(t, 64<<20, func(_ *node.Node, p *core.PMEM) error {
		pass := func(n int) error {
			for i := 0; i < 64; i++ {
				if err := p.StoreDatum(fmt.Sprintf("scalar-%d", i), scalarDatum(int64(n*64+i))); err != nil {
					return err
				}
				s := strings.Repeat(string(rune('a'+n%26)), 8+3*i)
				if err := p.StoreDatum(fmt.Sprintf("string-%d", i), stringDatum(s)); err != nil {
					return err
				}
				flip := scalarDatum(int64(n))
				if (n+i)%2 == 0 {
					flip = blobDatum(byte(n))
				}
				if err := p.StoreDatum(fmt.Sprintf("flip-%d", i), flip); err != nil {
					return err
				}
			}
			return nil
		}
		for n := 0; n < 3; n++ {
			if err := pass(n); err != nil {
				return err
			}
		}
		base, err := p.Stats()
		if err != nil {
			return err
		}
		baseLive := liveBlocks(p)
		for n := 3; n < 3+10000/192+1; n++ {
			if err := pass(n); err != nil {
				return err
			}
			st, err := p.Stats()
			if err != nil {
				return err
			}
			if live := liveBlocks(p); st.HeapUsed != base.HeapUsed || live != baseLive {
				return fmt.Errorf("pass %d: heap %d -> %d bytes, live blocks %d -> %d: overwrites leak",
					n, base.HeapUsed, st.HeapUsed, baseLive, live)
			}
		}
		if d, err := p.LoadDatum("string-63"); err != nil || len(d.Payload) != 8+3*63 {
			return fmt.Errorf("string-63 after the soak: %v, %v", d, err)
		}
		if steals := p.Metrics().Get("pmemcpy_alloc_arena_steals_total"); steals != 0 {
			return fmt.Errorf("%d arena steals on one rank", steals)
		}
		return nil
	})
}

// TestOverwriteScriptIsDeterministic runs one seeded 2 000-op overwrite script
// twice on one rank: virtual time is bit-identical and no allocation leaves
// the rank's home arena — a transaction's arena is a function of its rank, not
// of the order transactions arrive in.
func TestOverwriteScriptIsDeterministic(t *testing.T) {
	run := func() (virt int64, steals int64) {
		overwriteRig(t, 64<<20, func(_ *node.Node, p *core.PMEM) error {
			rng := rand.New(rand.NewSource(2000))
			for i := 0; i < 8; i++ {
				if err := p.Alloc(fmt.Sprintf("arr-%d", i), serial.Float64, []uint64{64 * 32}); err != nil {
					return err
				}
			}
			for op := 0; op < 2000; op++ {
				var err error
				switch k := rng.Intn(32); rng.Intn(3) {
				case 0:
					err = p.StoreDatum(fmt.Sprintf("scalar-%d", k), scalarDatum(rng.Int63()))
				case 1:
					err = p.StoreDatum(fmt.Sprintf("string-%d", k), stringDatum(strings.Repeat("x", 1+rng.Intn(200))))
				default:
					err = p.StoreBlock(fmt.Sprintf("arr-%d", k%8), []uint64{uint64(rng.Intn(64)) * 32}, []uint64{32}, uniformF64(32, float64(op)))
				}
				if err != nil {
					return fmt.Errorf("op %d: %w", op, err)
				}
			}
			virt, steals = int64(p.Comm().Clock().Now()), p.Metrics().Get("pmemcpy_alloc_arena_steals_total")
			return nil
		})
		return virt, steals
	}
	v1, s1 := run()
	v2, s2 := run()
	if v1 != v2 || v1 == 0 {
		t.Errorf("virtual time of the same script: %d ns, then %d ns", v1, v2)
	}
	if s1 != 0 || s2 != 0 {
		t.Errorf("arena steals = %d, %d; want 0", s1, s2)
	}
}

// TestWholeValueOverArrayFreesItsBlocks: a whole value stored over an array
// takes the array's block list with it. Every block the list named is free
// afterwards, on one pool and on four; with a view lease open they park until
// the lease closes, the view reading the old bytes meanwhile. The array's
// "#dims" companion is a record of its own and is untouched.
func TestWholeValueOverArrayFreesItsBlocks(t *testing.T) {
	for _, pools := range []int{1, 4} {
		for _, lease := range []bool{false, true} {
			t.Run(fmt.Sprintf("pools=%d/lease=%v", pools, lease), func(t *testing.T) {
				n := node.New(sim.DefaultConfig(), 16<<20, node.WithPMEMPools(pools))
				n.Machine.SetConcurrency(1)
				_, err := mpi.Run(n.Machine, 1, func(c *mpi.Comm) error {
					p, err := core.Mmap(c, n, "/over.pool", core.WithCodec("raw"))
					if err != nil {
						return err
					}
					if err := p.Alloc("A", serial.Float64, []uint64{12}); err != nil {
						return err
					}
					for i := uint64(0); i < 3; i++ {
						if err := p.StoreBlock("A", []uint64{4 * i}, []uint64{4}, uniformF64(4, float64(i+1))); err != nil {
							return err
						}
					}
					dims, _, err := p.RawValue("A" + core.DimsSuffix)
					if err != nil {
						return err
					}
					list, err := p.NamedBlocks("A")
					if err != nil || len(list) != 3 {
						return fmt.Errorf("the array names %v (%v), want 3 blocks", list, err)
					}
					var view *core.BlockView
					if lease {
						if view, err = p.LoadBlockView("A", []uint64{0}, []uint64{4}); err != nil {
							return err
						}
						if !view.ZeroCopy() {
							return fmt.Errorf("the view of A's first block is a copy, not a lease")
						}
					}
					if err := p.StoreDatum("A", scalarDatum(9)); err != nil {
						return err
					}
					if d, err := p.LoadDatum("A"); err != nil || !bytes.Equal(d.Payload, scalarDatum(9).Payload) {
						return fmt.Errorf("LoadDatum(A) = (%v, %v)", d, err)
					}
					allocated := func() (n int) {
						for _, b := range list {
							if p.BlockAllocated(int(b[0]), b[1]) {
								n++
							}
						}
						return n
					}
					if view != nil {
						if got := allocated(); got != 3 {
							return fmt.Errorf("%d of the list's blocks allocated under the lease, want 3 (parked)", got)
						}
						if parked := p.Metrics().Get("pmemcpy_view_limbo_blocks"); parked != 3 {
							return fmt.Errorf("%d blocks parked, want 3", parked)
						}
						if b, err := view.Bytes(); err != nil || !bytes.Equal(b, uniformF64(4, 1)) {
							return fmt.Errorf("the view no longer reads the old block: %v", err)
						}
						if err := view.Close(); err != nil {
							return err
						}
					}
					if got := allocated(); got != 0 {
						return fmt.Errorf("%d of the list's blocks %v still allocated, want 0", got, list)
					}
					if after, _, err := p.RawValue("A" + core.DimsSuffix); err != nil || !bytes.Equal(after, dims) {
						return fmt.Errorf("the dims record moved: % x -> % x (%v)", dims, after, err)
					}
					if vs := p.VerifyStore(); len(vs) != 0 {
						return fmt.Errorf("store violations: %v", vs)
					}
					return p.Munmap()
				})
				if err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestDeleteOverflowingOneLaneKeepsTheRecord: a Delete frees what its record
// names in the unlinking transaction, so a block list too long for one lane's
// undo log is refused whole — ErrTxLogFull, the record and every block it
// names intact and allocated — never unlinked with its blocks leaked. An
// overwrite never meets that limit: it drops what the lane can log and leaves
// the rest listed for the next one.
func TestDeleteOverflowingOneLaneKeepsTheRecord(t *testing.T) {
	const elems = 800 // one 1-element block each: 24 undo bytes apiece to free, past a 16 KB lane
	n := node.New(sim.DefaultConfig(), 16<<20)
	n.Machine.SetConcurrency(1)
	_, err := mpi.Run(n.Machine, 1, func(c *mpi.Comm) error {
		p, err := core.Mmap(c, n, "/lane.pool", core.WithCodec("raw"))
		if err != nil {
			return err
		}
		if err := p.Alloc("L", serial.Float64, []uint64{elems}); err != nil {
			return err
		}
		for i := uint64(0); i < elems; i++ {
			if err := p.StoreBlock("L", []uint64{i}, []uint64{1}, uniformF64(1, 3)); err != nil {
				return err
			}
		}
		list, err := p.NamedBlocks("L")
		if err != nil || len(list) != elems {
			return fmt.Errorf("L names %d blocks (%v), want %d", len(list), err, elems)
		}
		if _, err := p.Delete("L"); !errors.Is(err, pmdk.ErrTxLogFull) {
			return fmt.Errorf("Delete of a %d-block list = %v, want ErrTxLogFull", elems, err)
		}
		if again, err := p.NamedBlocks("L"); err != nil || !slices.Equal(again, list) {
			return fmt.Errorf("L's record moved under the refused Delete (%v)", err)
		}
		for _, b := range list {
			if !p.BlockAllocated(int(b[0]), b[1]) {
				return fmt.Errorf("L names block %v, which is free", b)
			}
		}
		if v, err := loadUniformF64(p, "L", elems); err != nil || v != 3 {
			return fmt.Errorf("L after the refused Delete = (%g, %v)", v, err)
		}
		if vs := p.VerifyStore(); len(vs) != 0 {
			return fmt.Errorf("store violations: %v", vs)
		}
		// A store over the whole extent contains every listed block, but
		// drops only as many as its lane can log: it succeeds, and the rest
		// drain over the stores after it, until the Delete fits.
		for v, n := 4.0, len(list); n > 1; v++ {
			if err := p.StoreBlock("L", []uint64{0}, []uint64{elems}, uniformF64(elems, v)); err != nil {
				return fmt.Errorf("full-extent store over %d listed blocks: %w", n, err)
			}
			again, err := p.NamedBlocks("L")
			switch {
			case err != nil:
				return err
			case v == 4 && len(again) == 1:
				return fmt.Errorf("one store dropped all %d blocks: no lane cap", n)
			case len(again) >= n+1:
				return fmt.Errorf("a store over %d listed blocks dropped none", n)
			}
			n = len(again)
		}
		if vs := p.VerifyStore(); len(vs) != 0 {
			return fmt.Errorf("store violations after the drain: %v", vs)
		}
		if mn, mx, err := p.MinMax("L"); err != nil || mn != 3 {
			return fmt.Errorf("MinMax(L) after the drain = [%g, %g], %v; want the 3s kept", mn, mx, err)
		}
		if _, err := p.Delete("L"); err != nil {
			return fmt.Errorf("Delete of the drained list: %w", err)
		}
		return p.Munmap()
	})
	if err != nil {
		t.Fatal(err)
	}
}

// ownedOnce holds the allocator to the block lists: every block a record of
// the store names is allocated, and no block is named twice — not by two ids,
// not twice in one list.
func ownedOnce(p *core.PMEM) error {
	keys, err := p.Keys()
	if err != nil {
		return err
	}
	owner := map[[2]int64]string{}
	for _, id := range keys {
		named, err := p.NamedBlocks(id)
		if err != nil {
			return err
		}
		for _, b := range named {
			if prev, ok := owner[b]; ok {
				return fmt.Errorf("block %v is named by %q and %q", b, prev, id)
			}
			owner[b] = id
			if !p.BlockAllocated(int(b[0]), b[1]) {
				return fmt.Errorf("%s names block %v, which is not allocated", id, b)
			}
		}
	}
	return nil
}

// listOverwriteScript overwrites a block-list id whose list already dropped a
// block — the record carries a trailer going in — on one write path: Setup
// stores the whole extent as 1, then as 3; Run stores it as 5, dropping the
// 3s (every unit of a sharded store drops the old unit it contains; the
// coalesced quarters merge into one block that contains the old one). A
// crash anywhere recovers to 3s with MinMax [1, 3] or to 5s with [1, 5], no
// block named twice or named and free; the explorer adds VerifyStore.
func listOverwriteScript(name string, elems, pools int, opts *core.Options, run func(p *core.PMEM) error) core.Script {
	store := func(p *core.PMEM, v float64) error {
		return p.StoreBlock("A", []uint64{0}, []uint64{uint64(elems)}, uniformF64(elems, v))
	}
	return core.Script{
		Name:    name,
		DevSize: 8 << 20,
		Pools:   pools,
		Options: opts,
		Setup: func(p *core.PMEM) error {
			if err := p.Alloc("A", serial.Float64, []uint64{uint64(elems)}); err != nil {
				return err
			}
			if err := store(p, 1); err != nil {
				return err
			}
			if err := p.Alloc("B", serial.Float64, []uint64{16}); err != nil {
				return err
			}
			if err := p.StoreBlock("B", []uint64{0}, []uint64{16}, uniformF64(16, 7)); err != nil {
				return err
			}
			return store(p, 3)
		},
		Run: func(p *core.PMEM) error {
			if run != nil {
				return run(p)
			}
			return store(p, 5)
		},
		Verify: func(p *core.PMEM) error {
			a, err := loadUniformF64(p, "A", elems)
			if err != nil {
				return err
			}
			if a != 3 && a != 5 {
				return fmt.Errorf("A = all %g, want 3 or 5", a)
			}
			if mn, mx, err := p.MinMax("A"); err != nil || mn != 1 || mx != a {
				return fmt.Errorf("MinMax(A) = [%g, %g], %v with A = all %g, want [1, %g]", mn, mx, err, a, a)
			}
			return ownedOnce(p)
		},
		VerifyDone: func(p *core.PMEM) error {
			bs, err := p.BlockStatsOf("A")
			if err != nil {
				return err
			}
			for _, b := range bs {
				if b.Min != 5 {
					return fmt.Errorf("A still lists a block of %g after the overwrite", b.Min)
				}
			}
			return nil
		},
	}
}

// TestExploreListOverwrite crashes a block-list overwrite at every persist
// point on the serial path, the sharded path over four member pools (the
// dropped stripes outside the home pool are freed after the commit), and the
// async path whose coalesced quarters merge into one block.
func TestExploreListOverwrite(t *testing.T) {
	const q = 16
	for _, s := range []core.Script{
		listOverwriteScript("list-overwrite/serial", 64, 1, nil, nil),
		listOverwriteScript("list-overwrite/sharded", 32768, 4, &core.Options{Parallelism: 4, Codec: "raw"}, nil),
		listOverwriteScript("list-overwrite/async", 4*q, 1, &core.Options{Async: true, CoalesceWindow: 8, Codec: "raw"},
			func(p *core.PMEM) error {
				for i := uint64(0); i < 4; i++ {
					p.StoreBlockAsync("A", []uint64{i * q}, []uint64{q}, uniformF64(q, 5))
				}
				return p.Flush(context.Background())
			}),
	} {
		t.Run(s.Name, func(t *testing.T) {
			runExplore(t, s, core.ExploreOptions{Tear: true})
		})
	}
}

// liveBlocks is the allocator's blocks handed out and not returned.
func liveBlocks(p *core.PMEM) int64 {
	m := p.Metrics()
	return m.Get("pmemcpy_alloc_allocs_total") - m.Get("pmemcpy_alloc_frees_total")
}
