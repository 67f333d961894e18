package core_test

// Tests of the overwrite: a whole value published over a whole value frees the
// block it shadows in the publishing transaction (writeplan.go publishGroup).
// The crash explorer, a media-error sweep, allocator exhaustion, an open view
// lease, and the steady state — each asserting old-or-new bytes AND that the
// allocator agrees with the record about who owns which block.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"pmemcpy/internal/bytesview"
	"pmemcpy/internal/core"
	"pmemcpy/internal/mpi"
	"pmemcpy/internal/node"
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

// refBlock returns the PMID a value-ref record names (tag | pmid u64 | …).
func refBlock(p *core.PMEM, id string) (int64, error) {
	raw, ok, err := p.RawValue(id)
	if err != nil || !ok || len(raw) != 21 {
		return 0, fmt.Errorf("record of %q: %d bytes, ok=%v, err=%v", id, len(raw), ok, err)
	}
	return int64(binary.LittleEndian.Uint64(raw[1:])), nil
}

// exploreOverwriteScript overwrites a scalar three times, a string twice (into
// another size class and back), then a whole array. Run notes which step is in
// flight and which block that step's record named going in, so Verify can hold
// the recovered allocator to the recovered record: the block the record names
// is allocated, and the block it stopped naming is free exactly when the
// record is the new one.
func exploreOverwriteScript() core.Script {
	const elems = 32
	values := map[string][]*serial.Datum{
		"s":    {scalarDatum(1), scalarDatum(2), scalarDatum(3), scalarDatum(4)},
		"name": {stringDatum("old-name"), stringDatum(strings.Repeat("a much longer name ", 6)), stringDatum("short")},
	}
	steps := []string{"s", "s", "s", "name", "name", "A"}
	var (
		inflight int   // index into steps; len(steps) once Run completed
		oldBlk   int64 // the block the in-flight step's record named before it
	)
	storeA := func(p *core.PMEM, v float64) error {
		if err := p.Alloc("A", serial.Float64, []uint64{elems}); err != nil {
			return err
		}
		return p.StoreBlock("A", []uint64{0}, []uint64{elems}, uniformF64(elems, v))
	}
	return core.Script{
		Name:    "overwrite",
		DevSize: 8 << 20,
		Setup: func(p *core.PMEM) error {
			inflight = 0
			for id, vs := range values {
				if err := p.StoreDatum(id, vs[0]); err != nil {
					return err
				}
			}
			return storeA(p, 1)
		},
		Run: func(p *core.PMEM) error {
			done := map[string]int{}
			for i, id := range steps {
				inflight = i
				if id == "A" {
					if err := storeA(p, 2); err != nil {
						return err
					}
					continue
				}
				var err error
				if oldBlk, err = refBlock(p, id); err != nil {
					return err
				}
				done[id]++
				if err := p.StoreDatum(id, values[id][done[id]]); err != nil {
					return err
				}
			}
			inflight = len(steps)
			return nil
		},
		Verify: func(p *core.PMEM) error {
			for id, vs := range values {
				done, pending := 0, false
				for i, sid := range steps {
					if sid == id && i < inflight {
						done++
					}
					pending = pending || (sid == id && i == inflight)
				}
				d, err := p.LoadDatum(id)
				if err != nil {
					return fmt.Errorf("%s: %w", id, err)
				}
				isNew := pending && bytes.Equal(d.Payload, vs[done+1].Payload)
				if !isNew && !bytes.Equal(d.Payload, vs[done].Payload) {
					return fmt.Errorf("%s = %q with %d overwrites done (pending=%v): neither old nor new", id, d.Payload, done, pending)
				}
				blk, err := refBlock(p, id)
				if err != nil {
					return err
				}
				if !p.BlockAllocated(0, blk) {
					return fmt.Errorf("%s names block %d, which is not allocated", id, blk)
				}
				if !pending {
					continue
				}
				if (blk != oldBlk) != isNew {
					return fmt.Errorf("%s reads new=%v but its record names block %d (was %d)", id, isNew, blk, oldBlk)
				}
				if free := !p.BlockAllocated(0, oldBlk); free != isNew {
					return fmt.Errorf("%s reads new=%v but the block it named, %d, is free=%v", id, isNew, oldBlk, free)
				}
			}
			a, err := loadUniformF64(p, "A", elems)
			if err != nil {
				return err
			}
			if a != 2 && (a != 1 || inflight > 5) {
				return fmt.Errorf("A = all %g with step %d in flight", a, inflight)
			}
			return nil
		},
	}
}

// TestExploreOverwrite crashes the overwrite script at EVERY persist point
// under lose-all, keep-all, eight random cache-loss draws and a torn store;
// the explorer adds fsck (Pool.Verify + Hashtable.Verify), the CRC deep check
// and VerifyStore to the script's own checks.
func TestExploreOverwrite(t *testing.T) {
	modes := []pmem.CrashMode{pmem.CrashLoseAll, pmem.CrashKeepAll}
	for i := 0; i < 8; i++ {
		modes = append(modes, pmem.CrashRandom)
	}
	rep := runExplore(t, exploreOverwriteScript(), core.ExploreOptions{Modes: modes, Tear: true})
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
// turn with an uncorrectable media error, until one goes through: a scalar
// (new block of the old one's class, record rewritten in place) and a string
// that changes size class. Each failure wraps ErrMedia and leaves the old
// value published over an allocated block; the handle goes on working.
func TestOverwriteMediaErrorSweep(t *testing.T) {
	for _, tc := range []struct {
		name     string
		old, new *serial.Datum
	}{
		{"scalar", scalarDatum(1), scalarDatum(2)},
		{"string", stringDatum("old"), stringDatum(strings.Repeat("new and longer ", 8))},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for k := int64(0); ; k++ {
				failed := false
				overwriteRig(t, 16<<20, func(n *node.Node, p *core.PMEM) error {
					if err := p.StoreDatum("v", tc.old); err != nil {
						return err
					}
					oldBlk, err := refBlock(p, "v")
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
						if blk, _ := refBlock(p, "v"); blk != oldBlk || !p.BlockAllocated(0, oldBlk) {
							return fmt.Errorf("persist %d: after the failed store the record names %d (was %d), allocated=%v",
								k, blk, oldBlk, p.BlockAllocated(0, oldBlk))
						}
						want = tc.old
					} else if p.BlockAllocated(0, oldBlk) {
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
					if k < 10 {
						t.Errorf("the overwrite finished in %d persists; the sweep missed its commits", k)
					}
					break
				}
			}
		})
	}
}

// TestOverwriteExhaustionKeepsOldValue is the abort contract on allocator
// exhaustion mid-overwrite: an overwrite that cannot allocate aborts (one
// allocator abort), reclaims nothing, and leaves the old value published and
// readable. Then the other half of the same fact: in a pool filled to the
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
		before, err := p.Stats()
		if err != nil {
			return err
		}
		huge := &serial.Datum{Type: serial.Bytes, Payload: make([]byte, 8<<20)}
		if err := p.StoreDatum("V", huge); err == nil {
			return fmt.Errorf("an 8 MB overwrite fit a 4 MB device")
		}
		after, err := p.Stats()
		if err != nil {
			return err
		}
		if after.Aborts-before.Aborts != 1 || after.Frees != before.Frees {
			return fmt.Errorf("failed overwrite: aborts +%d, frees +%d; want +1, +0",
				after.Aborts-before.Aborts, after.Frees-before.Frees)
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
// overwritten.
func TestViewHeldAcrossOverwrite(t *testing.T) {
	const elems = 1024
	overwriteRig(t, 16<<20, func(_ *node.Node, p *core.PMEM) error {
		if err := p.Alloc("A", serial.Float64, []uint64{elems}); err != nil {
			return err
		}
		if err := p.StoreBlock("A", []uint64{0}, []uint64{elems}, uniformF64(elems, 1)); err != nil {
			return err
		}
		if err := p.StoreDatum("s", scalarDatum(1)); err != nil {
			return err
		}
		if err := p.StoreDatum("name", stringDatum("old")); err != nil {
			return err
		}
		sBlk, err := refBlock(p, "s")
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
		before, err := p.Stats()
		if err != nil {
			return err
		}
		for _, err := range []error{
			p.StoreDatum("s", scalarDatum(2)),
			p.StoreDatum("s", scalarDatum(3)),
			p.StoreDatum("name", stringDatum(strings.Repeat("longer ", 20))),
		} {
			if err != nil {
				return err
			}
		}
		held, err := p.Stats()
		if err != nil {
			return err
		}
		m := p.Metrics()
		_, limbo, _ := p.ViewStats()
		if held.Frees != before.Frees || limbo != 3 || m.Get("pmemcpy_view_deferred_frees_total") != 3 ||
			m.Get("pmemcpy_superseded_blocks_total") != 3 || !p.BlockAllocated(0, sBlk) {
			return fmt.Errorf("with the view open: frees +%d, limbo %d, deferred %d, superseded %d, first shadowed block allocated=%v; want +0, 3, 3, 3, true",
				held.Frees-before.Frees, limbo, m.Get("pmemcpy_view_deferred_frees_total"),
				m.Get("pmemcpy_superseded_blocks_total"), p.BlockAllocated(0, sBlk))
		}
		// The array under the view is itself overwritten: its block list only
		// grows, so the aliased block stays published.
		if err := p.StoreBlock("A", []uint64{0}, []uint64{elems}, uniformF64(elems, 2)); err != nil {
			return err
		}
		if held, err = p.Stats(); err != nil {
			return err
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
		closed, err := p.Stats()
		if err != nil {
			return err
		}
		if _, limbo, _ := p.ViewStats(); limbo != 0 || closed.Frees-held.Frees != 3 || p.BlockAllocated(0, sBlk) {
			return fmt.Errorf("after Close: limbo %d, frees +%d, first shadowed block allocated=%v; want 0, +3, false",
				limbo, closed.Frees-held.Frees, p.BlockAllocated(0, sBlk))
		}
		if d, err := p.LoadDatum("s"); err != nil || !bytes.Equal(d.Payload, scalarDatum(3).Payload) {
			return fmt.Errorf("s after the view closed: %v, %v", d, err)
		}
		return nil
	}, core.WithCodec("raw"))
}

// TestOverwriteSteadyStateLeakFree overwrites 64 scalar and 64 string ids on
// one handle 10 000 times. Once every id has been overwritten once (each
// overwrite allocates its new block before the publish frees the old one, so
// the first overwrite pass may still carve), the heap does not grow by a byte
// and the number of live allocator blocks never moves.
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
			}
			return nil
		}
		for n := 0; n < 2; n++ {
			if err := pass(n); err != nil {
				return err
			}
		}
		base, err := p.Stats()
		if err != nil {
			return err
		}
		for n := 2; n < 2+10000/128+1; n++ {
			if err := pass(n); err != nil {
				return err
			}
			st, err := p.Stats()
			if err != nil {
				return err
			}
			if st.HeapUsed != base.HeapUsed || st.Allocs-st.Frees != base.Allocs-base.Frees {
				return fmt.Errorf("pass %d: heap %d -> %d bytes, live blocks %d -> %d: overwrites leak",
					n, base.HeapUsed, st.HeapUsed, base.Allocs-base.Frees, st.Allocs-st.Frees)
			}
		}
		if d, err := p.LoadDatum("string-63"); err != nil || len(d.Payload) != 8+3*63 {
			return fmt.Errorf("string-63 after the soak: %v, %v", d, err)
		}
		if st, _ := p.Stats(); st.ArenaSteals != 0 {
			return fmt.Errorf("%d arena steals on one rank", st.ArenaSteals)
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
			st, err := p.Stats()
			virt, steals = int64(p.Comm().Clock().Now()), st.ArenaSteals
			return err
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
