package main

import (
	"context"
	"fmt"
	"strings"
	"time"

	"pmemcpy/internal/core"
	"pmemcpy/internal/harness"
	"pmemcpy/internal/mpi"
	"pmemcpy/internal/node"
	"pmemcpy/internal/obs"
	"pmemcpy/internal/serial"
	"pmemcpy/internal/sim"
)

// asyncSpeedupTarget is the E16 gate: with coalescing on (window 32) the
// smallest-transfer write sweep must be at least this much faster than the
// synchronous path. Group commit exists to amortize the three fixed per-op
// costs that dominate small writes (transaction begin/commit, the persist
// barrier, the metadata publish); if it cannot buy 1.5x on 1 KB transfers,
// the pipeline has regressed into pure bookkeeping.
const asyncSpeedupTarget = 1.5

// asyncCell is one (variant, size, ranks) measurement of the E16 sweep.
type asyncCell struct {
	write, read time.Duration
	submitted   int64
	publishes   int64
	coalesced   int64
	batches     int64
}

// rankCase is the scaffold the E16-E18 cases share: a node of npools devices
// sized for ranks arrays of arrayLen bytes, every rank with the pool at path
// mapped under opts, its own uint8 array "rank<r>" allocated, and a bufLen-byte
// pattern buffer in hand. body does the case's I/O and returns the two virtual
// durations it timed; rankCase returns the max of each over ranks and rank 0's
// closing metrics snapshot.
func rankCase(cfg sim.Config, ranks, npools int, path string, opts []core.MmapOption, arrayLen, bufLen int64,
	body func(c *mpi.Comm, p *core.PMEM, id string, buf []byte) (first, second time.Duration, err error),
) (first, second time.Duration, snap obs.Snapshot, err error) {
	devSize := int64(ranks)*arrayLen*3/int64(npools) + (64 << 20)
	n := node.New(cfg, devSize, node.WithPMEMPools(npools))
	n.Machine.SetConcurrency(ranks)
	_, err = mpi.Run(n.Machine, ranks, func(c *mpi.Comm) error {
		p, err := core.Mmap(c, n, path, opts...)
		if err != nil {
			return err
		}
		id := fmt.Sprintf("rank%d", c.Rank())
		if err := p.Alloc(id, serial.Uint8, []uint64{uint64(arrayLen)}); err != nil {
			return err
		}
		buf := make([]byte, bufLen)
		for i := range buf {
			buf[i] = byte(c.Rank() + i)
		}
		d1, d2, err := body(c, p, id, buf)
		if err != nil {
			return err
		}
		m1, err := c.AllreduceU64(uint64(d1), mpi.OpMax)
		if err != nil {
			return err
		}
		m2, err := c.AllreduceU64(uint64(d2), mpi.OpMax)
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			first, second, snap = time.Duration(m1), time.Duration(m2), p.Metrics()
		}
		return p.Munmap()
	})
	return first, second, snap, err
}

// runAsyncCase writes perRank bytes per rank as adjacent chunk-sized
// sub-stores of one per-rank array — synchronously, or through the submission
// queue with the given coalesce window — and times the write (submit..drain)
// and a full read-back, virtual time, max over ranks.
func runAsyncCase(ranks int, cfg sim.Config, codec string, window int, async bool, chunk, perRank int64) (asyncCell, error) {
	opts := []core.MmapOption{core.WithCodec(codec)}
	if async {
		opts = append(opts, core.WithAsync(), core.WithCoalesceWindow(window))
	}
	write, read, snap, err := rankCase(cfg, ranks, 1, "/e16.pool", opts, perRank, chunk,
		func(c *mpi.Comm, p *core.PMEM, id string, buf []byte) (wdt, rdt time.Duration, err error) {
			t0 := c.Clock().Now()
			for off := int64(0); off < perRank; off += chunk {
				if async {
					p.StoreBlockAsync(id, []uint64{uint64(off)}, []uint64{uint64(chunk)}, buf)
				} else if err := p.StoreBlock(id, []uint64{uint64(off)}, []uint64{uint64(chunk)}, buf); err != nil {
					return 0, 0, err
				}
			}
			if async {
				if err := p.Flush(context.Background()); err != nil {
					return 0, 0, err
				}
			}
			wdt = c.Clock().Now() - t0
			dst := make([]byte, perRank)
			t1 := c.Clock().Now()
			if err := p.LoadBlock(id, []uint64{0}, []uint64{uint64(perRank)}, dst); err != nil {
				return 0, 0, err
			}
			rdt = c.Clock().Now() - t1
			for i := range dst {
				if dst[i] != buf[i%int(chunk)] {
					return 0, 0, fmt.Errorf("read-back mismatch at byte %d", i)
				}
			}
			return wdt, rdt, nil
		})
	return asyncCell{
		write: write, read: read,
		submitted: snap.Get("pmemcpy_async_submitted_total"),
		publishes: snap.Get("pmemcpy_async_publishes_total"),
		coalesced: snap.Get("pmemcpy_async_coalesced_total"),
		batches:   snap.Get("pmemcpy_async_batches_total"),
	}, err
}

// runAsyncAblation is E16: the group-commit/coalescing experiment. Unlike E14
// and E15 — whose layers deliberately charge no virtual time, making them
// wall-clock experiments — the async pipeline's amortizations are visible to
// the virtual clock: fewer transactions, fewer persist barriers, and fewer
// metadata publishes per byte are genuinely less device work. So E16 sweeps
// the transfer size at a fixed per-rank volume and compares deterministic
// virtual write times: sync vs window-1 (group-commit machinery, no batching)
// vs window-32 (coalescing on), under the identity codec where adjacent
// submissions merge and under bp4 where they cannot.
func runAsyncAblation(rankCounts []int, base harness.Params) ([]harness.Result, error) {
	const perRank = int64(1 << 20)
	sizes := []int64{1 << 10, 4 << 10, 16 << 10, 64 << 10}
	variants := []struct {
		name   string
		codec  string
		window int
		async  bool
	}{
		{"sync-raw", "raw", 0, false},
		{"w1-raw", "raw", 1, true},
		{"w32-raw", "raw", 32, true},
		{"sync-bp4", "bp4", 0, false},
		{"w32-bp4", "bp4", 32, true},
	}

	var all []harness.Result
	fmt.Printf("E16 — ASYNC GROUP COMMIT & COALESCING (virtual write time, %d KB per rank):\n", perRank>>10)
	var gateErr error
	for _, ranks := range rankCounts {
		fmt.Printf("\nranks=%d\n", ranks)
		fmt.Printf("%-10s %10s %10s %10s %10s %12s %10s\n",
			"SIZE", "SYNC-RAW", "W1-RAW", "W32-RAW", "SYNC-BP4", "W32-BP4", "COALESCE")
		fmt.Println(strings.Repeat("-", 78))
		for _, size := range sizes {
			cells := make([]asyncCell, len(variants))
			for vi, v := range variants {
				cell, err := runAsyncCase(ranks, base.Config, v.codec, v.window, v.async, size, perRank)
				if err != nil {
					return all, fmt.Errorf("async ablation %s size=%d ranks=%d: %w", v.name, size, ranks, err)
				}
				cells[vi] = cell
				all = append(all, harness.Result{
					Library: fmt.Sprintf("%s/%dK", v.name, size>>10),
					Ranks:   ranks,
					Bytes:   int64(ranks) * perRank,
					Write:   cell.write,
					Read:    cell.read,
				})
			}
			w32 := cells[2]
			ratio := 0.0
			if w32.publishes > 0 {
				ratio = float64(w32.submitted) / float64(w32.publishes)
			}
			fmt.Printf("%-10s %9.3fs %9.3fs %9.3fs %9.3fs %11.3fs %9.1fx\n",
				fmt.Sprintf("%dK", size>>10),
				cells[0].write.Seconds(), cells[1].write.Seconds(), cells[2].write.Seconds(),
				cells[3].write.Seconds(), cells[4].write.Seconds(), ratio)
			if size == sizes[0] {
				speedup := float64(cells[0].write) / float64(cells[2].write)
				vsW1 := float64(cells[1].write) / float64(cells[2].write)
				fmt.Printf("           -> %dK speedup: w32 vs sync %.2fx (target >= %.1fx), w32 vs w1 %.2fx, "+
					"%d submissions in %d batches, %d merges\n",
					size>>10, speedup, asyncSpeedupTarget, vsW1,
					w32.submitted, w32.batches, w32.coalesced)
				if speedup < asyncSpeedupTarget && gateErr == nil {
					gateErr = fmt.Errorf("async ablation: %d KB write speedup %.2fx below the %.1fx target (ranks=%d)",
						size>>10, speedup, asyncSpeedupTarget, ranks)
				}
			}
		}
	}

	// Harness parity: the same pipeline through the pio surface — Params.Async
	// reaches the library through pio.Configurable, session writes queue, Close drains — with every
	// byte verified on read-back. This is a correctness cross-check on the
	// bulk-transfer workload, not a small-write measurement.
	p := base
	p.Verify = true
	p.Async = true
	p.CoalesceWindow = 32
	libs := []harness.Entry{{Label: "harness-async", Lib: core.Library{Codec: "raw"}}}
	res, err := harness.Sweep(libs, rankCounts[:1], p)
	if err != nil {
		return all, fmt.Errorf("async ablation harness parity: %w", err)
	}
	all = append(all, res...)
	fmt.Printf("\nharness parity (pio surface, verified read-back): %s\n", res[0])
	if gateErr != nil {
		return all, gateErr
	}
	fmt.Printf("verdict: coalescing gate passed (>= %.1fx on the smallest transfer)\n\n", asyncSpeedupTarget)
	return all, nil
}
