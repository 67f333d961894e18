package core_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"pmemcpy/internal/bytesview"
	"pmemcpy/internal/core"
	"pmemcpy/internal/mpi"
	"pmemcpy/internal/pmem"
	"pmemcpy/internal/serial"
)

// viewState reads the lease layer's live state off the registry: open leases,
// blocks parked in limbo, and views garbage-collected without Close.
func viewState(p *core.PMEM) (active, limbo, leaked int64) {
	m := p.Metrics()
	return m.Get("pmemcpy_view_active_leases"), m.Get("pmemcpy_view_limbo_blocks"), m.Get("pmemcpy_view_leaked_total")
}

// viewSingle runs fn as a 1-rank job with a fresh store and does NOT Munmap,
// so stale-view tests control the handle teardown themselves.
func viewSingle(t *testing.T, opts *core.Options, fn func(p *core.PMEM) error) {
	t.Helper()
	n := newNode()
	_, err := mpi.Run(n.Machine, 1, func(c *mpi.Comm) error {
		p, err := core.Mmap(c, n, "/view.pool", core.OptionsArg(opts))
		if err != nil {
			return err
		}
		return fn(p)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestViewZeroCopy checks the happy path: under an identity codec a full- and
// a sub-block view alias the stored bytes (zero-copy), read back the right
// elements, and bump the zero-copy counter.
func TestViewZeroCopy(t *testing.T) {
	const elems = 1024
	viewSingle(t, &core.Options{Codec: "raw"}, func(p *core.PMEM) error {
		vals := make([]float64, elems)
		for i := range vals {
			vals[i] = float64(i)
		}
		if err := p.Alloc("A", serial.Float64, []uint64{elems}); err != nil {
			return err
		}
		if err := p.StoreBlock("A", []uint64{0}, []uint64{elems}, bytesview.Bytes(vals)); err != nil {
			return err
		}

		v, err := p.LoadBlockView("A", []uint64{0}, []uint64{elems})
		if err != nil {
			return err
		}
		if !v.ZeroCopy() {
			return fmt.Errorf("full view: ZeroCopy() = false, want true")
		}
		raw, err := v.Bytes()
		if err != nil {
			return err
		}
		if !bytes.Equal(raw, bytesview.Bytes(vals)) {
			return fmt.Errorf("full view bytes differ from stored data")
		}
		if err := v.Close(); err != nil {
			return err
		}

		// Sub-range of the stored block: still one contiguous slice.
		sub, err := p.LoadBlockView("A", []uint64{256}, []uint64{128})
		if err != nil {
			return err
		}
		if !sub.ZeroCopy() {
			return fmt.Errorf("sub view: ZeroCopy() = false, want true")
		}
		raw, err = sub.Bytes()
		if err != nil {
			return err
		}
		got := bytesview.OfCopy[float64](raw)
		if len(got) != 128 || got[0] != 256 || got[127] != 383 {
			return fmt.Errorf("sub view = len %d [%g..%g], want 128 [256..383]",
				len(got), got[0], got[len(got)-1])
		}
		if err := sub.Close(); err != nil {
			return err
		}

		if zc := p.Metrics().Get("pmemcpy_view_zero_copy_total"); zc != 2 {
			return fmt.Errorf("zero_copy counter = %d, want 2", zc)
		}
		if fb := p.Metrics().Get("pmemcpy_view_fallback_total"); fb != 0 {
			return fmt.Errorf("fallback counter = %d, want 0", fb)
		}
		if active, limbo, leaked := viewState(p); active != 0 || limbo != 0 || leaked != 0 {
			return fmt.Errorf("view state = (%d, %d, %d), want all zero", active, limbo, leaked)
		}
		return p.Munmap()
	})
}

// TestViewFallback checks every condition that must route through the copying
// planner: a non-identity codec, a gather spanning two stored blocks, and
// full read verification. Each still returns correct data.
func TestViewFallback(t *testing.T) {
	const elems = 512
	cases := []struct {
		name string
		opts *core.Options
		// split stores the array as two half-blocks; request spans both.
		split bool
	}{
		{name: "codec", opts: &core.Options{Codec: "bp4"}},
		{name: "spanning", opts: &core.Options{Codec: "raw"}, split: true},
		{name: "verify", opts: &core.Options{Codec: "raw", VerifyReads: core.VerifyFull}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			viewSingle(t, tc.opts, func(p *core.PMEM) error {
				vals := make([]float64, elems)
				for i := range vals {
					vals[i] = float64(i) / 3
				}
				if err := p.Alloc("A", serial.Float64, []uint64{elems}); err != nil {
					return err
				}
				if tc.split {
					if err := p.StoreBlock("A", []uint64{0}, []uint64{elems / 2},
						bytesview.Bytes(vals[:elems/2])); err != nil {
						return err
					}
					if err := p.StoreBlock("A", []uint64{elems / 2}, []uint64{elems / 2},
						bytesview.Bytes(vals[elems/2:])); err != nil {
						return err
					}
				} else if err := p.StoreBlock("A", []uint64{0}, []uint64{elems},
					bytesview.Bytes(vals)); err != nil {
					return err
				}
				v, err := p.LoadBlockView("A", []uint64{0}, []uint64{elems})
				if err != nil {
					return err
				}
				if v.ZeroCopy() {
					return fmt.Errorf("ZeroCopy() = true, want fallback")
				}
				raw, err := v.Bytes()
				if err != nil {
					return err
				}
				if got := bytesview.OfCopy[float64](raw); len(got) != elems || got[100] != vals[100] {
					return fmt.Errorf("fallback view data wrong")
				}
				if err := v.Close(); err != nil {
					return err
				}
				if fb := p.Metrics().Get("pmemcpy_view_fallback_total"); fb != 1 {
					return fmt.Errorf("fallback counter = %d, want 1", fb)
				}
				return p.Munmap()
			})
		})
	}
}

// TestViewDeferredFreeReclaim is the reclamation protocol end to end: a
// Delete while a view lease is open must NOT free the viewed block (it parks
// in limbo, the view keeps reading old data), and Close must reclaim it.
func TestViewDeferredFreeReclaim(t *testing.T) {
	const elems = 256
	viewSingle(t, &core.Options{Codec: "raw"}, func(p *core.PMEM) error {
		if err := p.Alloc("A", serial.Float64, []uint64{elems}); err != nil {
			return err
		}
		if err := p.StoreBlock("A", []uint64{0}, []uint64{elems}, uniformF64(elems, 42)); err != nil {
			return err
		}
		v, err := p.LoadBlockView("A", []uint64{0}, []uint64{elems})
		if err != nil {
			return err
		}
		if !v.ZeroCopy() {
			return fmt.Errorf("view not zero-copy; test needs an aliasing lease")
		}
		if _, err := p.Delete("A"); err != nil {
			return err
		}
		// The metadata entry is gone...
		if _, _, lerr := p.LoadDims("A"); !errors.Is(lerr, core.ErrNotFound) {
			// Dims live under A#dims, a separate id; A's block list is what
			// Delete removed. Check the block read path instead.
			_ = lerr
		}
		dst := make([]byte, elems*8)
		if err := p.LoadBlock("A", []uint64{0}, []uint64{elems}, dst); !errors.Is(err, core.ErrNotFound) {
			return fmt.Errorf("LoadBlock after delete = %v, want ErrNotFound", err)
		}
		// ...but the payload block is parked, not freed, and the view still
		// reads the pre-delete data.
		if _, limbo, _ := viewState(p); limbo != 1 {
			return fmt.Errorf("limbo = %d after delete-with-lease, want 1", limbo)
		}
		frees1 := p.Metrics().Get("pmemcpy_alloc_frees_total")
		raw, err := v.Bytes()
		if err != nil {
			return fmt.Errorf("view read after delete: %w", err)
		}
		if got := bytesview.OfCopy[float64](raw); got[0] != 42 || got[elems-1] != 42 {
			return fmt.Errorf("view data changed after delete: %g", got[0])
		}

		// Close drains the epoch: the parked block is freed now.
		if err := v.Close(); err != nil {
			return err
		}
		if _, limbo, _ := viewState(p); limbo != 0 {
			return fmt.Errorf("limbo = %d after close, want 0", limbo)
		}
		if d := p.Metrics().Get("pmemcpy_alloc_frees_total") - frees1; d != 1 {
			return fmt.Errorf("close freed %d blocks, want exactly the parked one", d)
		}
		if rc := p.Metrics().Get("pmemcpy_view_reclaimed_total"); rc != 1 {
			return fmt.Errorf("reclaimed counter = %d, want 1", rc)
		}
		if df := p.Metrics().Get("pmemcpy_view_deferred_frees_total"); df != 1 {
			return fmt.Errorf("deferred counter = %d, want 1", df)
		}
		return p.Munmap()
	})
}

// TestViewRepublishIsolation: a view taken before an overwrite keeps reading
// the blocks it planned against; a view taken after sees the new data.
func TestViewRepublishIsolation(t *testing.T) {
	const elems = 128
	viewSingle(t, &core.Options{Codec: "raw"}, func(p *core.PMEM) error {
		if err := p.Alloc("A", serial.Float64, []uint64{elems}); err != nil {
			return err
		}
		if err := p.StoreBlock("A", []uint64{0}, []uint64{elems}, uniformF64(elems, 1)); err != nil {
			return err
		}
		old, err := p.LoadBlockView("A", []uint64{0}, []uint64{elems})
		if err != nil {
			return err
		}
		// Republish the full extent: the old block is contained and the
		// store drops it — with the lease open it parks instead of freeing.
		if err := p.StoreBlock("A", []uint64{0}, []uint64{elems}, uniformF64(elems, 2)); err != nil {
			return err
		}
		if _, limbo, _ := viewState(p); limbo == 0 {
			return fmt.Errorf("overwrite with lease open parked nothing")
		}
		raw, err := old.Bytes()
		if err != nil {
			return err
		}
		if got := bytesview.OfCopy[float64](raw); got[0] != 1 {
			return fmt.Errorf("pre-republish view reads %g, want 1", got[0])
		}
		fresh, err := p.LoadBlockView("A", []uint64{0}, []uint64{elems})
		if err != nil {
			return err
		}
		raw, err = fresh.Bytes()
		if err != nil {
			return err
		}
		if got := bytesview.OfCopy[float64](raw); got[0] != 2 {
			return fmt.Errorf("post-republish view reads %g, want 2", got[0])
		}
		if err := fresh.Close(); err != nil {
			return err
		}
		// The old lease still pins the parked block.
		if _, limbo, _ := viewState(p); limbo == 0 {
			return fmt.Errorf("limbo drained while the older lease was still open")
		}
		if err := old.Close(); err != nil {
			return err
		}
		if _, limbo, _ := viewState(p); limbo != 0 {
			return fmt.Errorf("limbo not drained after last lease closed")
		}
		return p.Munmap()
	})
}

// TestViewStale checks the fail-fast contract: Bytes errors with ErrStaleView
// after Close and after Munmap, including on fallback (copy-backed) views.
func TestViewStale(t *testing.T) {
	const elems = 64
	viewSingle(t, &core.Options{Codec: "raw"}, func(p *core.PMEM) error {
		if err := p.Alloc("A", serial.Float64, []uint64{elems}); err != nil {
			return err
		}
		if err := p.StoreBlock("A", []uint64{0}, []uint64{elems}, uniformF64(elems, 5)); err != nil {
			return err
		}
		closed, err := p.LoadBlockView("A", []uint64{0}, []uint64{elems})
		if err != nil {
			return err
		}
		if err := closed.Close(); err != nil {
			return err
		}
		if _, err := closed.Bytes(); !errors.Is(err, core.ErrStaleView) {
			return fmt.Errorf("Bytes after Close = %v, want ErrStaleView", err)
		}
		if err := closed.Close(); err != nil {
			return fmt.Errorf("second Close = %v, want idempotent nil", err)
		}

		open, err := p.LoadBlockView("A", []uint64{0}, []uint64{elems})
		if err != nil {
			return err
		}
		if err := p.Munmap(); err != nil {
			return err
		}
		if _, err := open.Bytes(); !errors.Is(err, core.ErrStaleView) {
			return fmt.Errorf("Bytes after Munmap = %v, want ErrStaleView", err)
		}
		if err := open.Close(); err != nil {
			return fmt.Errorf("Close after Munmap = %v, want nil", err)
		}
		if v, err := p.LoadBlockView("A", []uint64{0}, []uint64{elems}); !errors.Is(err, core.ErrStaleView) {
			if v != nil {
				v.Close()
			}
			return fmt.Errorf("LoadBlockView after Munmap = %v, want ErrStaleView", err)
		}
		return nil
	})
}

// TestViewMidAsyncBatch: opening a view between async submissions must
// observe every earlier same-id submission (the barrier seals and commits the
// pending batch first) and still be zero-copy on the committed block.
func TestViewMidAsyncBatch(t *testing.T) {
	const elems = 256
	opts := &core.Options{Codec: "raw", Async: true, CoalesceWindow: 8}
	viewSingle(t, opts, func(p *core.PMEM) error {
		if err := p.Alloc("A", serial.Float64, []uint64{elems}); err != nil {
			return err
		}
		fut := p.StoreBlockAsync("A", []uint64{0}, []uint64{elems}, uniformF64(elems, 9))
		if fut.Done() {
			return fmt.Errorf("async store completed before barrier; test is vacuous")
		}
		v, err := p.LoadBlockView("A", []uint64{0}, []uint64{elems})
		if err != nil {
			return err
		}
		if !fut.Done() {
			return fmt.Errorf("view open did not drain the pending async batch")
		}
		if !v.ZeroCopy() {
			return fmt.Errorf("view of async-committed block not zero-copy")
		}
		raw, err := v.Bytes()
		if err != nil {
			return err
		}
		if got := bytesview.OfCopy[float64](raw); got[0] != 9 || got[elems-1] != 9 {
			return fmt.Errorf("view after async store reads %g, want 9", got[0])
		}
		if err := v.Close(); err != nil {
			return err
		}
		return p.Munmap()
	})
}

// TestViewLeakDetector: a view garbage-collected without Close bumps the leak
// counter (and only the counter — the finalizer must not free or reclaim,
// since GC timing is nondeterministic).
func TestViewLeakDetector(t *testing.T) {
	const elems = 64
	viewSingle(t, &core.Options{Codec: "raw"}, func(p *core.PMEM) error {
		if err := p.Alloc("A", serial.Float64, []uint64{elems}); err != nil {
			return err
		}
		if err := p.StoreBlock("A", []uint64{0}, []uint64{elems}, uniformF64(elems, 1)); err != nil {
			return err
		}
		leak := func() error {
			v, err := p.LoadBlockView("A", []uint64{0}, []uint64{elems})
			if err != nil {
				return err
			}
			if !v.ZeroCopy() {
				return fmt.Errorf("leak test needs a leased view")
			}
			return nil // dropped without Close
		}
		if err := leak(); err != nil {
			return err
		}
		for i := 0; i < 100; i++ {
			runtime.GC()
			if _, _, leaked := viewState(p); leaked >= 1 {
				break
			}
		}
		_, _, leaked := viewState(p)
		if leaked != 1 {
			return fmt.Errorf("leaked counter = %d after GC, want 1", leaked)
		}
		// The leaked lease pins its epoch: deferred frees stay parked.
		if _, err := p.Delete("A"); err != nil {
			return err
		}
		if _, limbo, _ := viewState(p); limbo != 1 {
			return fmt.Errorf("limbo = %d with leaked lease, want 1 (pinned)", limbo)
		}
		return p.Munmap()
	})
}

// TestConcurrentViewStress is the -race gate for the lease layer: ranks race
// zero-copy views against overwrites, deletes, and scrub passes on
// shared variables. Every view must read internally consistent data (a
// uniform block — never a torn mix of generations), and limbo must drain once
// all leases close.
func TestConcurrentViewStress(t *testing.T) {
	const (
		ranks   = 6
		opsEach = 40
		elems   = 1 << 12
	)
	n := newNode()
	n.Machine.SetConcurrency(ranks)
	opts := &core.Options{Codec: "raw", Parallelism: 2, ReadParallelism: 2}

	var genMu sync.Mutex
	gen := make(map[string]float64) // current generation per var; 0 = absent

	varName := func(v int) string { return fmt.Sprintf("view/v%d", v) }
	_, err := mpi.Run(n.Machine, ranks, func(c *mpi.Comm) error {
		p, err := core.Mmap(c, n, "/viewstress.pool", core.OptionsArg(opts))
		if err != nil {
			return err
		}
		rng := rand.New(rand.NewSource(int64(c.Rank()*7919 + 3)))
		for op := 0; op < opsEach; op++ {
			v := rng.Intn(3)
			id := varName(v)
			switch rng.Intn(10) {
			case 0, 1, 2, 3: // store a new generation, dropping the old one
				genMu.Lock()
				g := gen[id] + 1
				if err := p.Alloc(id, serial.Float64, []uint64{elems}); err != nil {
					genMu.Unlock()
					return fmt.Errorf("rank %d alloc %s: %w", c.Rank(), id, err)
				}
				if err := p.StoreBlock(id, []uint64{0}, []uint64{elems}, uniformF64(elems, g)); err != nil {
					genMu.Unlock()
					return fmt.Errorf("rank %d store %s: %w", c.Rank(), id, err)
				}
				gen[id] = g
				genMu.Unlock()
			case 4: // delete
				genMu.Lock()
				if _, err := p.Delete(id); err != nil {
					genMu.Unlock()
					return fmt.Errorf("rank %d delete %s: %w", c.Rank(), id, err)
				}
				if _, err := p.Delete(id + core.DimsSuffix); err != nil {
					genMu.Unlock()
					return fmt.Errorf("rank %d delete dims %s: %w", c.Rank(), id, err)
				}
				gen[id] = 0
				genMu.Unlock()
			case 5: // scrub: nothing is corrupt, nothing may quarantine
				rep, err := p.Scrub(context.Background())
				if err != nil {
					return fmt.Errorf("rank %d scrub: %w", c.Rank(), err)
				}
				if rep.Quarantined != 0 {
					return fmt.Errorf("rank %d: scrub quarantined %d healthy blocks", c.Rank(), rep.Quarantined)
				}
			default: // view: whatever generation we see must be uniform
				vw, err := p.LoadBlockView(id, []uint64{0}, []uint64{elems})
				if err != nil {
					if errors.Is(err, core.ErrNotFound) {
						continue
					}
					return fmt.Errorf("rank %d view %s: %w", c.Rank(), id, err)
				}
				raw, err := vw.Bytes()
				if err != nil {
					vw.Close()
					return fmt.Errorf("rank %d view bytes %s: %w", c.Rank(), id, err)
				}
				vals := bytesview.OfCopy[float64](raw)
				for i := range vals {
					if vals[i] != vals[0] {
						vw.Close()
						return fmt.Errorf("rank %d: %s view torn: [0]=%g [%d]=%g",
							c.Rank(), id, vals[0], i, vals[i])
					}
				}
				if err := vw.Close(); err != nil {
					return fmt.Errorf("rank %d close view %s: %w", c.Rank(), id, err)
				}
			}
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		if c.Rank() == 0 {
			active, limbo, leaked := viewState(p)
			if active != 0 || leaked != 0 {
				return fmt.Errorf("final view state: active=%d leaked=%d, want 0/0", active, leaked)
			}
			if limbo != 0 {
				return fmt.Errorf("final limbo = %d, want 0 (all leases closed)", limbo)
			}
		}
		return p.Munmap()
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestExploreViewLeases drives the crash explorer through a workload that
// crashes with a view lease outstanding: deferred frees are parked in limbo
// at every persist point of the run. Recovery must treat parked blocks
// exactly like the unlink-then-free garbage the fsck already accepts, with
// zero unexplored persist points.
func TestExploreViewLeases(t *testing.T) {
	if testing.Short() {
		t.Skip("explorer matrix in -short mode")
	}
	const elems = 96
	script := core.Script{
		Name:    "view-leases",
		DevSize: 8 << 20,
		Options: &core.Options{Codec: "raw"},
		Setup: func(p *core.PMEM) error {
			if err := p.Alloc("A", serial.Float64, []uint64{elems}); err != nil {
				return err
			}
			return p.StoreBlock("A", []uint64{0}, []uint64{elems}, uniformF64(elems, 1))
		},
		Run: func(p *core.PMEM) error {
			// Lease open across a republish + delete, so every free in the
			// window defers onto limbo; the close at the end reclaims, so the
			// deferred-free transaction itself is under injection too.
			v, err := p.LoadBlockView("A", []uint64{0}, []uint64{elems})
			if err != nil {
				return err
			}
			defer v.Close()
			if err := p.StoreBlock("A", []uint64{0}, []uint64{elems}, uniformF64(elems, 2)); err != nil {
				return err
			}
			raw, err := v.Bytes()
			if err != nil {
				return err
			}
			if got := bytesview.OfCopy[float64](raw); got[0] != 1 {
				return fmt.Errorf("lease lost pre-republish data: %g", got[0])
			}
			return v.Close()
		},
		Verify: func(p *core.PMEM) error {
			a, err := loadUniformF64(p, "A", elems)
			if err != nil {
				return err
			}
			if a != 1 && a != 2 {
				return fmt.Errorf("A = all %g, want 1 or 2", a)
			}
			return nil
		},
	}
	rep, err := core.Explore(script, core.ExploreOptions{
		Modes: []pmem.CrashMode{pmem.CrashLoseAll, pmem.CrashRandom},
		Tear:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if un := rep.Unexplored(); len(un) > 0 {
		t.Errorf("unexplored persist points with leases outstanding: %v", un)
	}
	if len(rep.Failures) > 0 {
		t.Errorf("recovery failures:\n%s", rep.Format())
	}
	if len(rep.Escapes) > 0 {
		t.Errorf("silent corruption escapes:\n%s", rep.Format())
	}
	if rep.Ops == 0 {
		t.Errorf("explorer found no persist ops; script is vacuous")
	}
}
