package main

import (
	"bytes"
	"fmt"
	"strings"
	"time"

	"pmemcpy/internal/core"
	"pmemcpy/internal/harness"
	"pmemcpy/internal/mpi"
	"pmemcpy/internal/sim"
)

// poolsBandwidthTarget is the E17 gate: striping one namespace over 4 member
// pools — each with its own device, allocator, transaction lanes, and
// bandwidth ports — must deliver at least this aggregate large-store speedup
// over the single-pool store. The multi-pool layer exists to turn device-level
// parallelism into namespace bandwidth; if 4 devices cannot buy 1.5x, the
// striping has regressed into routing overhead.
const poolsBandwidthTarget = 1.5

// runPoolsCase stores one large per-rank array (raw codec, par copy workers)
// on the namespace of an npools-device node, times the store and a full
// verified read-back (virtual time, max over ranks), and returns both phases.
func runPoolsCase(cfg sim.Config, ranks, npools, par int, perRank int64) (write, read time.Duration, err error) {
	opts := []core.MmapOption{core.WithCodec("raw"), core.WithParallelism(par), core.WithReadParallelism(par)}
	write, read, _, err = rankCase(cfg, ranks, npools, "/e17.pool", opts, perRank, perRank,
		func(c *mpi.Comm, p *core.PMEM, id string, buf []byte) (wdt, rdt time.Duration, err error) {
			t0 := c.Clock().Now()
			if err := p.StoreBlock(id, []uint64{0}, []uint64{uint64(perRank)}, buf); err != nil {
				return 0, 0, err
			}
			wdt = c.Clock().Now() - t0
			dst := make([]byte, perRank)
			t1 := c.Clock().Now()
			if err := p.LoadBlock(id, []uint64{0}, []uint64{uint64(perRank)}, dst); err != nil {
				return 0, 0, err
			}
			rdt = c.Clock().Now() - t1
			if !bytes.Equal(dst, buf) {
				return 0, 0, fmt.Errorf("read-back mismatch")
			}
			return wdt, rdt, nil
		})
	return write, read, err
}

// runPoolsAblation is E17: the multi-pool striping experiment. Each member
// pool sits on its own emulated device with dedicated bandwidth ports (one
// DIMM set per pool), so a striped store's per-pool shard groups drain in
// parallel and the virtual clock advances by the slowest member, not the sum.
// The sweep holds the workload fixed (large raw-codec stores, a deep worker
// pool per rank) and varies only the member count; the single-pool row is the
// exact pre-existing store, so the ratio is the layer's contribution.
func runPoolsAblation(rankCounts []int, base harness.Params, lib core.Library) ([]harness.Result, error) {
	const (
		ranks   = 4
		par     = 16
		perRank = int64(16 << 20)
	)
	poolCounts := []int{1, 2, 4, 8}

	var all []harness.Result
	totalBytes := int64(ranks) * perRank
	fmt.Printf("E17 — MULTI-POOL STRIPED NAMESPACE (virtual time, %d ranks x %d MB, raw codec, %d workers/rank):\n",
		ranks, perRank>>20, par)
	fmt.Printf("%-8s %12s %12s %14s %10s\n", "POOLS", "WRITE", "READ", "AGG WRITE BW", "SPEEDUP")
	fmt.Println(strings.Repeat("-", 62))
	var baseWrite time.Duration
	var gateErr error
	speedupAt := map[int]float64{}
	for _, npools := range poolCounts {
		write, read, err := runPoolsCase(base.Config, ranks, npools, par, perRank)
		if err != nil {
			return all, fmt.Errorf("pools ablation pools=%d: %w", npools, err)
		}
		if npools == 1 {
			baseWrite = write
		}
		speedup := float64(baseWrite) / float64(write)
		speedupAt[npools] = speedup
		// Bandwidth over stored (physical) bytes and virtual seconds: absolute
		// values share the profile scale, so ratios between rows are exact.
		bw := float64(totalBytes) / write.Seconds() / 1e9
		fmt.Printf("%-8d %11.3fs %11.3fs %11.2f GB/s %9.2fx\n",
			npools, write.Seconds(), read.Seconds(), bw, speedup)
		all = append(all, harness.Result{
			Library: fmt.Sprintf("pools=%d", npools),
			Ranks:   ranks,
			Bytes:   totalBytes,
			Write:   write,
			Read:    read,
		})
	}
	if s := speedupAt[4]; s < poolsBandwidthTarget {
		gateErr = fmt.Errorf("pools ablation: 4-pool aggregate write speedup %.2fx below the %.1fx target", s, poolsBandwidthTarget)
	}

	// Harness parity: the same striping through the pio surface — the
	// harness node carries 4 devices, so the namespace has 4 members — with
	// every byte verified on read-back.
	p := base
	p.Verify = true
	p.Pools = 4
	libs := []harness.Entry{{Label: "harness-pools4", Lib: variant(lib, func(l *core.Library) {
		l.Codec, l.Parallelism = "raw", par
	})}}
	res, err := harness.Sweep(libs, rankCounts[:1], p)
	if err != nil {
		return all, fmt.Errorf("pools ablation harness parity: %w", err)
	}
	all = append(all, res...)
	fmt.Printf("\nharness parity (pio surface, verified read-back): %s\n", res[0])
	if gateErr != nil {
		return all, gateErr
	}
	fmt.Printf("verdict: multi-pool gate passed (>= %.1fx aggregate write bandwidth at 4 pools)\n\n", poolsBandwidthTarget)
	return all, nil
}
