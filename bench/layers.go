package main

import (
	"strings"
	"time"

	"pmemcpy"
	"pmemcpy/internal/adios"
	"pmemcpy/internal/core"
	"pmemcpy/internal/harness"
	"pmemcpy/internal/pmdk"
	"pmemcpy/internal/pmem"
	"pmemcpy/internal/sim"
)

// Exact counts come from outside too: the handle group's always-on counter
// series (PMEM.Metrics) read at phase boundaries, and the device's counters
// (run.go takes those with the other resources).

// Indices into rawCounts. The first len(seriesNames) are read by series name.
const (
	cTx = iota
	cAllocs
	cFrees
	cAborts
	cSteals
	cHits
	cMisses
	cInvalidations
	cViewZero
	cViewFallback
	cSubmitted
	cPublishes
	cBackpressure
	cBatchOps  // pmemcpy_async_batch_ops histogram: sum …
	cBatches   // … and count
	cLoadBytes // bytes the load ops moved out of PMEM
	nCounts
)

var seriesNames = [...]string{
	cTx:            "pmemcpy_alloc_transactions_total",
	cAllocs:        "pmemcpy_alloc_allocs_total",
	cFrees:         "pmemcpy_alloc_frees_total",
	cAborts:        "pmemcpy_alloc_aborts_total",
	cSteals:        "pmemcpy_alloc_arena_steals_total",
	cHits:          "pmemcpy_cache_hits_total",
	cMisses:        "pmemcpy_cache_misses_total",
	cInvalidations: "pmemcpy_cache_invalidations_total",
	cViewZero:      "pmemcpy_view_zero_copy_total",
	cViewFallback:  "pmemcpy_view_fallback_total",
	cSubmitted:     "pmemcpy_async_submitted_total",
	cPublishes:     "pmemcpy_async_publishes_total",
	cBackpressure:  "pmemcpy_async_backpressure_total",
}

// rawCounts are the product counters the per-layer metrics are built from.
type rawCounts [nCounts]int64

func readCounts(pm *pmemcpy.PMEM) rawCounts {
	s := pm.Metrics()
	var c rawCounts
	for i, name := range seriesNames {
		c[i] = s.Get(name)
	}
	for _, m := range s.Metrics {
		switch m.Name {
		case "pmemcpy_async_batch_ops":
			c[cBatchOps] += m.Sum
			c[cBatches] += m.Count
		case "pmemcpy_op_bytes_total":
			if len(m.Labels) > 0 && strings.HasPrefix(m.Labels[0].Value, "load_") {
				c[cLoadBytes] += m.Value
			}
		}
	}
	return c
}

// layerCounts accumulates counter deltas per phase over the traced rounds.
// A handle group's counters start at zero when it is mapped and die with it,
// so absorb is called before every Munmap; for a handle that outlives a
// phase it is also called at the phase's end and takes the delta.
type layerCounts struct {
	prevPM *pmemcpy.PMEM
	prev   rawCounts
	ph     [nPhases]rawCounts
}

// absorb folds pm's counters since the last absorb of the same handle into
// phase ph (ph < 0: discard them, setting a baseline).
func (lc *layerCounts) absorb(pm *pmemcpy.PMEM, ph int) {
	now := readCounts(pm)
	if pm != lc.prevPM {
		lc.prevPM, lc.prev = pm, rawCounts{}
	}
	if ph >= 0 {
		for i := range now {
			lc.ph[ph][i] += now[i] - lc.prev[i]
		}
	}
	lc.prev = now
}

// harnessRung is the paper-scale rung of the ladder: the same cells as the
// root BenchmarkFig6Write/BenchmarkFig7Read at PMCPY-A/procs=24 — 40 GB
// modelled at scale 1024 — and their speed-up over ADIOS. Virtual time only,
// so the 24 goroutines on 2 CPUs do not matter.
func harnessRung() (fig6, fig7, speedup6, speedup7 float64, err error) {
	const scale = 1024.0
	p := harness.Params{
		TotalBytes: int64(40e9 / scale), Vars: 10, Ranks: 24,
		Config: sim.DefaultConfig().Scale(scale), Runs: 1,
	}
	pm, err := harness.Run(core.Library{}, p)
	if err != nil {
		return 0, 0, 0, 0, err
	}
	ad, err := harness.Run(adios.Library{}, p)
	if err != nil {
		return 0, 0, 0, 0, err
	}
	return pm.Write.Seconds(), pm.Read.Seconds(),
		ad.Write.Seconds() / pm.Write.Seconds(), ad.Read.Seconds() / pm.Read.Seconds(), nil
}

// poolOpenTimes measures pmdk.Open of a pool that was shut down cleanly and
// of one whose power was cut inside a transaction (Open then runs recovery),
// in microseconds, each the median of reps fresh pools.
func poolOpenTimes(reps int) (openUS, recoverUS float64, err error) {
	var clean, crashed []float64
	for i := 0; i < reps; i++ {
		for _, crash := range []bool{false, true} {
			clk := new(sim.Clock)
			dev := pmem.New(sim.NewMachine(sim.DefaultConfig()), 48<<20, pmem.WithCrashTracking())
			m, err := pmem.NewMapping(dev, 0, dev.Size(), false)
			if err != nil {
				return 0, 0, err
			}
			pool, err := pmdk.Create(clk, m, nil)
			if err != nil {
				return 0, 0, err
			}
			// Some allocator state to walk, then one transaction left open
			// with logged mutations.
			for j := 0; j < 64; j++ {
				tx, err := pool.Begin(clk)
				if err != nil {
					return 0, 0, err
				}
				if _, err := pool.Alloc(tx, int64(64<<(j%8))); err != nil {
					return 0, 0, err
				}
				if err := tx.Commit(); err != nil {
					return 0, 0, err
				}
			}
			if crash {
				tx, err := pool.Begin(clk)
				if err != nil {
					return 0, 0, err
				}
				for j := 0; j < 8; j++ {
					if _, err := pool.Alloc(tx, 4096); err != nil {
						return 0, 0, err
					}
				}
				dev.Crash(pmem.CrashLoseAll, nil)
			}
			t := time.Now()
			if _, err := pmdk.Open(clk, m); err != nil {
				return 0, 0, err
			}
			us := float64(time.Since(t)) / 1e3
			if crash {
				crashed = append(crashed, us)
			} else {
				clean = append(clean, us)
			}
		}
	}
	return median(clean), median(crashed), nil
}
