package core_test

// Crash-point exploration of the asynchronous group commit. The batch commit
// introduces two persist points (core.async.payload, core.async.merge) and a
// new publish shape — one metadata update covering several blocks of one id —
// so its crash states are group-granular: after recovery an id is wholly
// before or wholly after its batch, never between. The scripts below pin
// exactly that, under the same zero-unexplored / zero-silent-escape
// acceptance criteria as the synchronous workloads.

import (
	"context"
	"fmt"
	"testing"

	"pmemcpy/internal/core"
	"pmemcpy/internal/mpi"
	"pmemcpy/internal/node"
	"pmemcpy/internal/serial"
	"pmemcpy/internal/sim"
)

// exploreAsyncBatchScript queues four quarter-stores of A and two full
// overwrites of B through the async pipeline (bp4 codec: no merging, so each
// submission is its own block) and flushes. CoalesceWindow 4 seals A's
// submissions into the first batch and B's into the second, so recovery must
// observe A's four quarters atomically and B strictly after A.
func exploreAsyncBatchScript() core.Script {
	const elems = 64
	return core.Script{
		Name:    "async-batch",
		DevSize: 8 << 20,
		Options: &core.Options{Async: true, CoalesceWindow: 4},
		Setup: func(p *core.PMEM) error {
			if err := p.Alloc("A", serial.Float64, []uint64{elems}); err != nil {
				return err
			}
			if err := p.StoreBlock("A", []uint64{0}, []uint64{elems},
				uniformF64(elems, 1)); err != nil {
				return err
			}
			if err := p.Alloc("B", serial.Float64, []uint64{16}); err != nil {
				return err
			}
			return p.StoreBlock("B", []uint64{0}, []uint64{16}, uniformF64(16, 5))
		},
		Run: func(p *core.PMEM) error {
			const q = elems / 4
			for i := 0; i < 4; i++ {
				p.StoreBlockAsync("A", []uint64{uint64(i * q)}, []uint64{q},
					uniformF64(q, 2))
			}
			p.StoreBlockAsync("B", []uint64{0}, []uint64{16}, uniformF64(16, 6))
			p.StoreBlockAsync("B", []uint64{0}, []uint64{16}, uniformF64(16, 6))
			return p.Flush(context.Background())
		},
		Verify: func(p *core.PMEM) error {
			// Group atomicity: A's four quarters published with one metadata
			// update, so a recovered A is uniformly old or uniformly new —
			// a mix means the group tore.
			a, err := loadUniformF64(p, "A", elems)
			if err != nil {
				return err
			}
			if a != 1 && a != 2 {
				return fmt.Errorf("A = all %g, want 1 or 2", a)
			}
			b, err := loadUniformF64(p, "B", 16)
			if err != nil {
				return err
			}
			if b != 5 && b != 6 {
				return fmt.Errorf("B = all %g, want 5 or 6", b)
			}
			// Batch order: B's batch commits strictly after A's, so a new B
			// implies a new A.
			if b == 6 && a != 2 {
				return fmt.Errorf("B committed (all 6) but A = all %g: batch order violated", a)
			}
			return nil
		},
		VerifyDone: func(p *core.PMEM) error {
			a, err := loadUniformF64(p, "A", elems)
			if err != nil {
				return err
			}
			if a != 2 {
				return fmt.Errorf("A = all %g after complete run, want 2", a)
			}
			b, err := loadUniformF64(p, "B", 16)
			if err != nil {
				return err
			}
			if b != 6 {
				return fmt.Errorf("B = all %g after complete run, want 6", b)
			}
			// bp4 does not merge: baseline + the four quarter blocks.
			blocks, err := p.BlockStatsOf("A")
			if err != nil {
				return err
			}
			if len(blocks) != 5 {
				return fmt.Errorf("A has %d blocks after the batch, want 5", len(blocks))
			}
			return nil
		},
	}
}

// exploreAsyncMergeScript drives the coalescing path: with the raw codec the
// four adjacent quarter-stores merge into ONE block whose CRC is folded from
// the fragments' — the persist runs under core.async.merge and publishes a
// single block record. Recovery must see the merged write all-or-nothing.
func exploreAsyncMergeScript() core.Script {
	const elems = 64
	return core.Script{
		Name:    "async-merge",
		DevSize: 8 << 20,
		Options: &core.Options{Async: true, CoalesceWindow: 8, Codec: "raw"},
		Setup: func(p *core.PMEM) error {
			if err := p.Alloc("A", serial.Float64, []uint64{elems}); err != nil {
				return err
			}
			return p.StoreBlock("A", []uint64{0}, []uint64{elems}, uniformF64(elems, 1))
		},
		Run: func(p *core.PMEM) error {
			const q = elems / 4
			for i := 0; i < 4; i++ {
				p.StoreBlockAsync("A", []uint64{uint64(i * q)}, []uint64{q},
					uniformF64(q, 2))
			}
			return p.Flush(context.Background())
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
		VerifyDone: func(p *core.PMEM) error {
			a, err := loadUniformF64(p, "A", elems)
			if err != nil {
				return err
			}
			if a != 2 {
				return fmt.Errorf("A = all %g after complete run, want 2", a)
			}
			// Coalescing must have merged the four fragments into one block,
			// which contains the baseline and drops it: one block listed, not
			// the baseline and four quarters.
			blocks, err := p.BlockStatsOf("A")
			if err != nil {
				return err
			}
			if len(blocks) != 1 {
				return fmt.Errorf("A has %d blocks, want 1 (coalescing did not merge)", len(blocks))
			}
			return nil
		},
	}
}

func TestExploreAsyncBatch(t *testing.T) {
	runExplore(t, exploreAsyncBatchScript(), core.ExploreOptions{Tear: true})
}

func TestExploreAsyncMerge(t *testing.T) {
	runExplore(t, exploreAsyncMergeScript(), core.ExploreOptions{Tear: true})
}

// TestExploreAsyncPointsReached pins that the async scripts actually execute
// under the async persist points — otherwise the two explorations above would
// vacuously pass while testing the synchronous path.
func TestExploreAsyncPointsReached(t *testing.T) {
	events, err := core.TraceScript(exploreAsyncBatchScript())
	if err != nil {
		t.Fatal(err)
	}
	names := persistPointNames(events)
	if want := "core.commit.batch"; !containsStr(names, want) {
		t.Errorf("async-batch trace reached %v, want %s", names, want)
	}
	events, err = core.TraceScript(exploreAsyncMergeScript())
	if err != nil {
		t.Fatal(err)
	}
	names = persistPointNames(events)
	if want := "core.commit.merge"; !containsStr(names, want) {
		t.Errorf("async-merge trace reached %v, want %s", names, want)
	}
}

func containsStr(ss []string, want string) bool {
	for _, s := range ss {
		if s == want {
			return true
		}
	}
	return false
}

// TestCrashAsyncPendingNotDurable pins the other half of the durability
// contract: a submission whose Future never completed is not durable. The
// handle dies (no Munmap, no drain) with the overwrite still queued, so a
// fresh handle group must serve exactly the pre-submit state — the queued
// write vanishes cleanly, never as a torn half-commit.
func TestCrashAsyncPendingNotDurable(t *testing.T) {
	n := node.New(sim.DefaultConfig(), 8<<20)
	n.Machine.SetConcurrency(1)
	_, err := mpi.Run(n.Machine, 1, func(c *mpi.Comm) error {
		p, err := core.Mmap(c, n, "/pend.pool", core.WithAsync())
		if err != nil {
			return err
		}
		if err := p.Alloc("A", serial.Float64, []uint64{16}); err != nil {
			return err
		}
		if err := p.StoreBlock("A", []uint64{0}, []uint64{16}, uniformF64(16, 1)); err != nil {
			return err
		}
		fut := p.StoreBlockAsync("A", []uint64{0}, []uint64{16}, uniformF64(16, 2))
		if fut.Done() {
			return fmt.Errorf("undrained submission completed")
		}
		// Return without Munmap: the handle dies with the op queued.
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	_, err = mpi.Run(n.Machine, 1, func(c *mpi.Comm) error {
		p, err := core.Mmap(c, n, "/pend.pool", core.WithVerifyReads(core.VerifyFull))
		if err != nil {
			return err
		}
		if vs := p.VerifyStore(); len(vs) > 0 {
			return fmt.Errorf("store invariants after abandoned queue: %v", vs)
		}
		a, err := loadUniformF64(p, "A", 16)
		if err != nil {
			return err
		}
		if a != 1 {
			return fmt.Errorf("A = all %g, want 1 (pending submission must not be durable)", a)
		}
		return p.Munmap()
	})
	if err != nil {
		t.Fatal(err)
	}
}
