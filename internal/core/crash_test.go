package core_test

import (
	"errors"
	"fmt"
	"testing"

	"pmemcpy/internal/core"
	"pmemcpy/internal/pmem"
	"pmemcpy/internal/serial"
)

// The PR 1/2 crash matrices, re-hosted on the crash-point explorer: instead
// of sweeping an opaque fail-after-k counter until the workload happens to
// complete, the explorer enumerates the exact persist trace once and then
// crash-tests every persist point by name — and every recovered state also
// passes the pmemfsck structural checks and the core metadata invariants,
// which the hand-rolled sweeps never looked at.

// overwriteScript is the classic sweep workload: a committed all-1s array is
// overwritten with all-2s; any recovered state must read back entirely old or
// entirely new.
func overwriteScript(name string, elems int, opts *core.Options) core.Script {
	return core.Script{
		Name:    name,
		DevSize: 32 << 20,
		Options: opts,
		Setup: func(p *core.PMEM) error {
			if err := p.Alloc("A", serial.Float64, []uint64{uint64(elems)}); err != nil {
				return err
			}
			return p.StoreBlock("A", []uint64{0}, []uint64{uint64(elems)},
				uniformF64(elems, 1))
		},
		Run: func(p *core.PMEM) error {
			return p.StoreBlock("A", []uint64{0}, []uint64{uint64(elems)},
				uniformF64(elems, 2))
		},
		Verify: func(p *core.PMEM) error {
			v, err := loadUniformF64(p, "A", elems)
			if err != nil {
				return err
			}
			if v != 1 && v != 2 {
				return fmt.Errorf("A = all %g, want 1 or 2", v)
			}
			return nil
		},
		VerifyDone: func(p *core.PMEM) error {
			v, err := loadUniformF64(p, "A", elems)
			if err != nil {
				return err
			}
			if v != 2 {
				return fmt.Errorf("committed overwrite lost (A = all %g)", v)
			}
			return nil
		},
	}
}

// TestCrashSweepStoreBlock crash-tests every persist point of a serial block
// overwrite under the lose-all, random, and torn-store adversaries. The
// end-to-end guarantee: the variable reads back as entirely old or entirely
// new data — a torn mix would mean the publish protocol (persist payload,
// then publish the block transactionally) is broken somewhere in the stack.
func TestCrashSweepStoreBlock(t *testing.T) {
	runExplore(t, overwriteScript("sweep-store-block", 512, nil),
		core.ExploreOptions{Seed: 99, Tear: true})
}

// TestCrashDuringAlloc explores failures through the dims declaration: after
// recovery the id either has valid dims or none.
func TestCrashDuringAlloc(t *testing.T) {
	s := core.Script{
		Name:    "alloc",
		DevSize: 32 << 20,
		Run: func(p *core.PMEM) error {
			return p.Alloc("V", serial.Float64, []uint64{4, 4})
		},
		Verify: func(p *core.PMEM) error {
			dt, dims, err := p.LoadDims("V")
			if err != nil {
				if errors.Is(err, core.ErrNotFound) {
					return nil // declaration did not commit
				}
				return err
			}
			if dt != serial.Float64 || len(dims) != 2 || dims[0] != 4 || dims[1] != 4 {
				return fmt.Errorf("recovered dims corrupt: %v %v", dt, dims)
			}
			return nil
		},
	}
	runExplore(t, s, core.ExploreOptions{
		Modes: []pmem.CrashMode{pmem.CrashLoseAll},
		Tear:  true,
	})
}

// TestCrashMatrixParallelStore extends the overwrite matrix to the sharded
// copy engine: a payload above the parallel threshold is overwritten with
// Parallelism workers, every persist point is crash-tested under each cache
// adversary plus the torn-store variant, and the recovered variable must read
// back as entirely old or entirely new data. A torn mix — some shards new,
// some old, or a block list pointing at half a batch — would mean the
// single-publish protocol (one transaction allocates all shards, one putValue
// links them) is broken. The serial row pins the same matrix on the
// non-sharded path.
func TestCrashMatrixParallelStore(t *testing.T) {
	const elems = 32768 // 256 KB payload: exactly the parallel-path threshold
	allModes := []pmem.CrashMode{pmem.CrashLoseAll, pmem.CrashKeepAll, pmem.CrashRandom}
	t.Run("serial", func(t *testing.T) {
		// The serial path already gets the loseall/random/torn sweep at small
		// size in TestCrashSweepStoreBlock; this row pins the threshold-sized
		// payload under the remaining adversary (keep-all catches data that
		// became visible before its commit fence).
		runExplore(t, overwriteScript("matrix-serial", elems, &core.Options{Parallelism: 1}),
			core.ExploreOptions{Seed: 4242, Modes: []pmem.CrashMode{pmem.CrashKeepAll}})
	})
	t.Run("parallel", func(t *testing.T) {
		s := overwriteScript("matrix-parallel", elems, &core.Options{Parallelism: 4})
		inner := s.VerifyDone
		s.VerifyDone = func(p *core.PMEM) error {
			if err := inner(p); err != nil {
				return err
			}
			if parallelOps(p, "store_") == 0 {
				return fmt.Errorf("store took the serial path despite Parallelism=4")
			}
			return nil
		}
		runExplore(t, s, core.ExploreOptions{Seed: 4242, Modes: allModes, Tear: true})
	})
}
