package core_test

// Differential flavor D: the asynchronous pipeline against the synchronous
// path and the DRAM model. Stores on the async backend are submitted through
// StoreBlockAsync and left queued; every other op kind runs synchronously (and
// so barriers behind the queue, exactly the per-handle program-order
// contract). Observables are compared at a stride rather than after every op —
// comparing each op would drain the queue each time and degenerate every
// batch to size one — so real multi-op batches, and under the raw codec real
// coalesced merges, are what the oracle checks. Divergences ddmin-shrink with
// the shared shrinker.

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"pmemcpy/internal/bytesview"
	"pmemcpy/internal/core"
	"pmemcpy/internal/mpi"
	"pmemcpy/internal/node"
	"pmemcpy/internal/sim"
)

// runDiffAsync replays ops on every backend — stores on backends[asyncIdx]
// via the submission queue — comparing all observables against the model
// every stride ops and after the final op. Returns a divergence description
// ("" if none) and an infrastructure error.
func runDiffAsync(ops []diffOp, backends []diffBackend, asyncIdx, stride int, devSize int64) (string, error) {
	n := node.New(sim.DefaultConfig(), devSize)
	n.Machine.SetConcurrency(1)
	var diverged string
	_, err := mpi.Run(n.Machine, 1, func(c *mpi.Comm) error {
		handles := make([]*core.PMEM, len(backends))
		for i, b := range backends {
			p, err := core.Mmap(c, n, b.path, core.OptionsArg(b.opts))
			if err != nil {
				return fmt.Errorf("mmap %s: %w", b.name, err)
			}
			handles[i] = p
		}
		if !handles[asyncIdx].AsyncEnabled() {
			return fmt.Errorf("backend %s is not async", backends[asyncIdx].name)
		}
		m := newDiffModel()
		var futs []*core.Future
		applied := 0
		compare := func(opIdx int) (string, error) {
			// The loads in compareState drain the queue via the sync-op
			// barrier; join the outstanding futures first so a submission
			// error is reported as such, not as a load mismatch.
			if err := handles[asyncIdx].Flush(context.Background()); err != nil {
				return "", fmt.Errorf("flush before compare at op %d: %w", opIdx, err)
			}
			for fi, f := range futs {
				if !f.Done() {
					return "", fmt.Errorf("future %d not done after Flush", fi)
				}
				if err := f.Wait(context.Background()); err != nil {
					return "", fmt.Errorf("async store %d failed: %w", fi, err)
				}
			}
			futs = futs[:0]
			return compareState(m, backends, handles, opIdx)
		}
		for i, op := range ops {
			if !m.applicable(op) {
				continue
			}
			m.apply(op)
			applied++
			for bi, b := range backends {
				if bi == asyncIdx && op.kind == "store" {
					futs = append(futs, handles[bi].StoreBlockAsync(
						op.id, op.offs, op.counts, bytesview.Bytes(op.vals)))
					continue
				}
				if err := applyDiffOp(handles[bi], op, b.hier); err != nil {
					return fmt.Errorf("op %d (%s) on %s: %w", i, op, b.name, err)
				}
			}
			if applied%stride != 0 && i != len(ops)-1 {
				continue
			}
			if msg, err := compare(i); err != nil {
				return err
			} else if msg != "" {
				diverged = fmt.Sprintf("after op %d (%s): %s", i, op, msg)
				return nil
			}
		}
		msg, err := compare(len(ops))
		if err != nil {
			return err
		}
		if msg != "" {
			diverged = fmt.Sprintf("at final state: %s", msg)
		}
		return nil
	})
	return diverged, err
}

// runDifferentialAsync generates, replays at the given compare stride, and on
// divergence shrinks to a minimal failing sequence.
func runDifferentialAsync(t *testing.T, seed int64, nOps, stride int, shapes map[string][]uint64,
	backends []diffBackend, devSize int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	ops := genDiffOps(rng, nOps, shapes, []string{"s1"}, 1<<16, false)
	msg, err := runDiffAsync(ops, backends, 0, stride, devSize)
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	if msg == "" {
		return
	}
	min := shrinkOps(ops, func(cand []diffOp) bool {
		m, err := runDiffAsync(cand, backends, 0, stride, devSize)
		return err == nil && m != ""
	})
	minMsg, _ := runDiffAsync(min, backends, 0, stride, devSize)
	t.Fatalf("seed %d: async diverged from sync oracle: %s\nminimal failing sequence (%d ops):\n%s(divergence: %s)",
		seed, msg, len(min), fmtOps(min), minMsg)
}

// TestDifferentialAsyncVsSync (flavor D): random op sequences where stores run
// through the async pipeline, compared against a synchronous backend and the
// DRAM model every 8 ops. Under bp4 nothing coalesces, so the block lists must
// match the oracle exactly — this flavor pins queueing, batching, and the
// sync-op barrier semantics.
func TestDifferentialAsyncVsSync(t *testing.T) {
	shapes := map[string][]uint64{
		"u": {48},
		"v": {6, 9},
		"w": {64},
	}
	backends := []diffBackend{
		{name: "async", path: "/as.pool",
			opts: &core.Options{PoolSize: 16 << 20, Async: true, CoalesceWindow: 4}},
		{name: "sync", path: "/sy.pool",
			opts: &core.Options{PoolSize: 16 << 20}},
	}
	for _, seed := range []int64{5, 13, 77, 2028} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			runDifferentialAsync(t, seed, 60, 8, shapes, backends, 32<<20)
		})
	}
}

// TestDifferentialAsyncCoalescing (flavor D, raw codec): with the identity
// codec adjacent submissions merge, so the async backend publishes genuinely
// different block structure than the oracle — loads must still agree
// byte-for-byte everywhere, and MinMax too: it is the running range of every
// value stored, whichever blocks the merged and unmerged lists keep.
func TestDifferentialAsyncCoalescing(t *testing.T) {
	shapes := map[string][]uint64{
		"u": {256},
		"v": {16, 16},
	}
	backends := []diffBackend{
		{name: "async-raw", path: "/ar.pool",
			opts: &core.Options{PoolSize: 16 << 20, Async: true, CoalesceWindow: 8, Codec: "raw"}},
		{name: "sync-raw", path: "/sr.pool",
			opts: &core.Options{PoolSize: 16 << 20, Codec: "raw"}},
	}
	for _, seed := range []int64{4, 21, 99} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			runDifferentialAsync(t, seed, 48, 8, shapes, backends, 32<<20)
		})
	}
}
