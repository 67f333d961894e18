package main

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"time"

	"pmemcpy/internal/core"
	"pmemcpy/internal/harness"
)

// wallExperiment is a host-wall-clock overhead experiment (E14, E15). The
// layers it measures deliberately charge no virtual time, so their real cost
// is host wall-clock only, and the defenses against a shared machine are the
// same for all of them: an untimed warm-up, interleaved rounds, noise-robust
// estimators, and virtual times compared in ppm against the baseline's own
// rep-to-rep jitter rather than for bit equality — virtual phase times carry
// a tiny scheduling jitter (which rank wins an arena steal or rebuilds a
// variable's DRAM block index first is scheduling-dependent).
type wallExperiment struct {
	name     string          // the -ablation name, for error text
	title    string          // table caption
	column   string          // heading of the variant column
	overCol  string          // printf verb laying out the overhead column
	variants []harness.Entry // variants[0] is the baseline
	reps     int
	// paired selects the estimator. false: the ratio of per-variant minimum
	// walls — the minimum is the least noise-contaminated sample of a
	// CPU-bound run; everything above it is interference. true: the smaller
	// of that and the median of paired per-round ratios (variant vs baseline
	// within the same round). Both are upward-biased by scheduler noise, but
	// differently: min-of-walls reads phantom overhead when the baseline drew
	// one lucky round, the paired median reads it under bursty within-round
	// interference. Noise rarely inflates both at once, while a genuine
	// regression lifts both — so the smaller is a stable CI gate.
	paired bool
}

// wallOutcome is what a wall-overhead experiment measured.
type wallOutcome struct {
	results  []harness.Result   // every variant's last round
	overhead map[string]float64 // percent over the baseline, per non-baseline variant
	worstDev float64            // worst virtual-time deviation of any variant from the baseline, ppm
	noise    float64            // baseline median vs min, percent
}

// run executes the experiment and prints its table.
func (e wallExperiment) run(rankCounts []int, base harness.Params) (wallOutcome, error) {
	sweep := func(v harness.Entry) ([]harness.Result, time.Duration, error) {
		t0 := time.Now()
		res, err := harness.Sweep([]harness.Entry{v}, rankCounts, base)
		return res, time.Since(t0), err
	}
	// Untimed warmup so the first timed variant doesn't absorb one-time costs
	// (page faults, allocator growth).
	if _, _, err := sweep(e.variants[0]); err != nil {
		return wallOutcome{}, fmt.Errorf("%s ablation warmup: %w", e.name, err)
	}

	// Reps are interleaved round-robin across variants (not run as one block
	// per variant) so slow machine drift — thermal throttling, competing
	// load — lands on every variant equally.
	walls := make([][]float64, len(e.variants))
	reps := make([][][]harness.Result, len(e.variants))
	for rep := 0; rep < e.reps; rep++ {
		for i, v := range e.variants {
			res, wall, err := sweep(v)
			if err != nil {
				return wallOutcome{}, fmt.Errorf("%s ablation %q: %w", e.name, v.Label, err)
			}
			walls[i] = append(walls[i], wall.Seconds())
			reps[i] = append(reps[i], res)
		}
	}
	out := wallOutcome{overhead: map[string]float64{}}
	for i := range reps {
		out.results = append(out.results, reps[i][e.reps-1]...)
	}

	// devPPM is the worst-case relative phase-time deviation of any of a
	// variant's rounds from the baseline's first, in parts per million.
	ref := reps[0][0]
	devPPM := func(rounds [][]harness.Result) float64 {
		var worst float64
		for _, round := range rounds {
			for i := range round {
				for _, d := range [2][2]time.Duration{{round[i].Write, ref[i].Write}, {round[i].Read, ref[i].Read}} {
					if d[1] != 0 {
						worst = max(worst, 1e6*math.Abs(float64(d[0])-float64(d[1]))/float64(d[1]))
					}
				}
			}
		}
		return worst
	}
	median := func(v []float64) float64 {
		s := slices.Sorted(slices.Values(v))
		return s[len(s)/2]
	}

	baseName := e.variants[0].Label
	baseJitter := devPPM(reps[0])
	fmt.Printf("%s (host wall-clock of the full sweep, %d interleaved rounds):\n", e.title, e.reps)
	fmt.Printf("%-8s %10s %10s "+e.overCol+"%s\n", e.column, "MIN", "MEDIAN", "OVERHEAD",
		"VIRTUAL TIME VS "+strings.ToUpper(baseName))
	fmt.Println(strings.Repeat("-", 84))
	for i, v := range e.variants {
		dev := devPPM(reps[i])
		over, verdict := "-", fmt.Sprintf("self-jitter %.1f ppm", dev)
		if i != 0 {
			mins := 100 * (slices.Min(walls[i])/slices.Min(walls[0]) - 1)
			out.overhead[v.Label] = mins
			over = fmt.Sprintf("%+.2f%%", mins)
			if e.paired {
				ratios := make([]float64, e.reps)
				for j := range ratios {
					ratios[j] = walls[i][j] / walls[0][j]
				}
				med := 100 * (median(ratios) - 1)
				out.overhead[v.Label] = min(mins, med)
				over = fmt.Sprintf("%+.2f%% (min %+.1f%%, med %+.1f%%)", out.overhead[v.Label], mins, med)
			}
			out.worstDev = max(out.worstDev, dev)
			verdict = fmt.Sprintf("dev %.1f ppm", dev)
		}
		fmt.Printf("%-8s %9.3fs %9.3fs "+e.overCol+"%s (%s self-jitter %.1f ppm)\n",
			v.Label, slices.Min(walls[i]), median(walls[i]), over, verdict, baseName, baseJitter)
	}
	out.noise = 100 * (median(walls[0])/slices.Min(walls[0]) - 1)
	fmt.Printf("machine noise floor (%s median vs min): %.1f%%\n", baseName, out.noise)
	return out, nil
}

// runObsAblation is E14: the observability overhead experiment. The
// instrumentation layer never touches the virtual clock.
func runObsAblation(rankCounts []int, base harness.Params, lib core.Library) ([]harness.Result, error) {
	out, err := wallExperiment{
		name: "obs", title: "E14 — OBSERVABILITY OVERHEAD", column: "VARIANT", overCol: "%10s  ", reps: 7,
		variants: []harness.Entry{
			// Counters are always on, and the harness snapshots them after
			// each phase in every variant; "base" is the library as every
			// other experiment runs it. "hist" adds latency/shape histograms
			// (the WithMetrics surface), "trace" additionally records
			// operation spans with device persist points.
			{Label: "base", Lib: variant(lib, func(l *core.Library) { l.Metrics = false })},
			{Label: "hist", Lib: variant(lib, func(l *core.Library) { l.Metrics = true })},
			{Label: "trace", Lib: variant(lib, func(l *core.Library) { l.Metrics, l.Tracing = true, true })},
		},
	}.run(rankCounts, base)
	if err != nil {
		return nil, err
	}
	worst := math.Inf(-1)
	for _, o := range out.overhead {
		worst = max(worst, o)
	}
	fmt.Printf("verdict: worst-case instrumentation overhead %+.2f%% (target < 2%%, noise floor %.1f%%)\n\n", worst, out.noise)
	return out.results, nil
}

// Budgets enforced by runIntegrityAblation; exceeding either is an error, so
// `make bench-check` fails the build instead of letting a regression land.
const (
	// integrityWallBudgetPct caps the host wall-clock overhead of full
	// verified reads over the unverified baseline.
	integrityWallBudgetPct = 10.0
	// integrityVirtualBudgetPPM caps the virtual-time deviation of any
	// verify mode from the baseline. CRC verification charges no virtual
	// time, so modes must agree to within the harness's ppm-scale
	// scheduling jitter.
	integrityVirtualBudgetPPM = 1000.0
)

// runIntegrityAblation is E15: the verified-read overhead experiment. Read-
// path CRC verification deliberately charges no virtual time (the checksum
// pass streams bytes the gather moves anyway).
func runIntegrityAblation(rankCounts []int, base harness.Params, lib core.Library) ([]harness.Result, error) {
	mode := func(name string, m core.VerifyMode) harness.Entry {
		return harness.Entry{Label: name, Lib: variant(lib, func(l *core.Library) { l.VerifyReads = m })}
	}
	out, err := wallExperiment{
		name: "integrity", title: "E15 — VERIFIED-READ OVERHEAD", column: "MODE", overCol: "%-22s ", reps: 9, paired: true,
		// "off" is the library exactly as every other experiment runs it;
		// "sampled" fully verifies every 8th load; "full" verifies every
		// gathered block of every load.
		variants: []harness.Entry{mode("off", core.VerifyOff), mode("sampled", core.VerifySampled), mode("full", core.VerifyFull)},
	}.run(rankCounts, base)
	if err != nil {
		return nil, err
	}
	fullOver := out.overhead["full"]
	fmt.Printf("verdict: full-verify overhead %+.2f%% (budget %.0f%%), worst virtual dev %.1f ppm (budget %.0f ppm)\n\n",
		fullOver, integrityWallBudgetPct, out.worstDev, integrityVirtualBudgetPPM)
	if fullOver > integrityWallBudgetPct {
		return out.results, fmt.Errorf("integrity ablation: full-verify wall overhead %+.2f%% exceeds the %.0f%% budget",
			fullOver, integrityWallBudgetPct)
	}
	if out.worstDev > integrityVirtualBudgetPPM {
		return out.results, fmt.Errorf("integrity ablation: virtual time deviates %.1f ppm from mode=off (budget %.0f ppm) — read-path verification must not charge the clock",
			out.worstDev, integrityVirtualBudgetPPM)
	}
	return out.results, nil
}
