// Command pmembench regenerates the paper's evaluation: Figure 6 (writes)
// and Figure 7 (reads) of the 40 GB 3-D domain workload across ADIOS,
// NetCDF-4, pNetCDF, PMCPY-A and PMCPY-B, plus the design-choice ablations
// catalogued in DESIGN.md (staging, layout, MAP_SYNC, serializer, fill mode).
//
// The workload runs at full modelled size on any host: the machine profile
// is scaled so the physical footprint stays within -phys bytes while virtual
// times correspond to the modelled -size (see sim.Config.Scale).
//
// Examples:
//
//	pmembench -fig all
//	pmembench -fig 6 -procs 8,16,24,32,48 -runs 3
//	pmembench -ablation serializer -procs 24
//	pmembench -fig all -csv results.csv
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"pmemcpy/internal/adios"
	"pmemcpy/internal/core"
	"pmemcpy/internal/harness"
	"pmemcpy/internal/netcdf"
	"pmemcpy/internal/obs"
	"pmemcpy/internal/pio"
	"pmemcpy/internal/pnetcdf"
	"pmemcpy/internal/sim"
	"pmemcpy/internal/workload"
)

func main() {
	var (
		fig       = flag.String("fig", "all", `figure to regenerate: "6" (writes), "7" (reads), "all", or "none"`)
		procs     = flag.String("procs", "8,16,24,32,48", "comma-separated process counts")
		size      = flag.Float64("size", 40e9, "modelled workload bytes (the paper: 40 GB)")
		phys      = flag.Float64("phys", 256e6, "physical memory budget for the data (sets the profile scale)")
		vars      = flag.Int("vars", 10, "number of 3-D rectangles")
		runs      = flag.Int("runs", 1, "repetitions to average (the paper: 3)")
		verify    = flag.Bool("verify", false, "verify every byte read back")
		ablation  = flag.String("ablation", "", "run an ablation instead: staging | layout | mapsync | serializer | fill | chunked | parallel | readparallel | obs | integrity | async | pools | views")
		parallel  = flag.Int("parallel", 0, "per-rank copy workers for the pMEMCPY libraries (<=1: serial)")
		readpar   = flag.Int("readparallel", 0, "per-rank gather workers for the pMEMCPY libraries (0: follow -parallel, 1: serial)")
		pattern   = flag.String("pattern", "same", "read access pattern: same | restart | plane")
		readprocs = flag.Int("readprocs", 0, "reader count for the restart pattern (0 = same as writers)")
		csvPath   = flag.String("csv", "", "also write results as CSV to this file")
		metrics   = flag.String("metrics", "", "capture per-phase observability snapshots and write a Prometheus-style exposition to this file")
		faults    = flag.Bool("faults", false, "run the fault-injection smoke suite instead of benchmarks")
	)
	flag.Parse()

	if *faults {
		os.Exit(runFaults())
	}

	rankCounts, err := parseProcs(*procs)
	if err != nil {
		fatal(err)
	}
	scale := *size / *phys
	if scale < 1 {
		scale = 1
	}
	pat, err := workload.ParsePattern(*pattern)
	if err != nil {
		fatal(err)
	}
	base := harness.Params{
		TotalBytes: int64(*size / scale),
		Vars:       *vars,
		Config:     sim.DefaultConfig().Scale(scale),
		Verify:     *verify,
		Runs:       *runs,
		Pattern:    pat,
		ReadRanks:  *readprocs,
		Capabilities: pio.Capabilities{
			Parallelism:     *parallel,
			ReadParallelism: *readpar,
			Metrics:         *metrics != "",
		},
	}
	fmt.Printf("pmembench: modelled %.1f GB across %d rectangles, profile scale %.0fx (physical %.0f MB)\n\n",
		*size/1e9, *vars, scale, float64(base.TotalBytes)/1e6)

	var results []harness.Result
	switch {
	case *ablation == "obs":
		results, err = runObsAblation(rankCounts, base)
	case *ablation == "integrity":
		results, err = runIntegrityAblation(rankCounts, base)
	case *ablation == "async":
		results, err = runAsyncAblation(rankCounts, base)
	case *ablation == "pools":
		results, err = runPoolsAblation(rankCounts, base)
	case *ablation == "views":
		results, err = runViewsAblation(rankCounts, base)
	case *ablation != "":
		results, err = runAblation(*ablation, rankCounts, base)
	default:
		libs := []harness.Entry{
			{Lib: adios.Library{}},
			{Lib: netcdf.Library{}},
			{Lib: pnetcdf.Library{}},
			{Lib: core.Library{}},
			{Lib: core.Library{MapSync: true}},
		}
		results, err = harness.Sweep(libs, rankCounts, base)
		if err == nil {
			printFigures(*fig, results)
			printClaims(results, rankCounts)
		}
	}
	if err != nil {
		fatal(err)
	}
	if *ablation != "" {
		fmt.Printf("ABLATION %q (writes):\n", *ablation)
		harness.Table(os.Stdout, results, "write")
		fmt.Printf("\nABLATION %q (reads):\n", *ablation)
		harness.Table(os.Stdout, results, "read")
	}
	if *csvPath != "" {
		f, err := os.Create(*csvPath)
		if err != nil {
			fatal(err)
		}
		harness.CSV(f, results)
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("\nCSV written to %s\n", *csvPath)
	}
	if *metrics != "" {
		if err := writeMetrics(*metrics, results); err != nil {
			fatal(err)
		}
		fmt.Printf("\nmetrics exposition written to %s\n", *metrics)
	}
}

// writeMetrics renders every captured per-phase snapshot as one Prometheus
// text exposition, with library/ranks/phase attached to each series.
func writeMetrics(path string, results []harness.Result) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	for _, r := range results {
		for _, ph := range []struct {
			name string
			snap obs.Snapshot
		}{{"write", r.WriteMetrics}, {"read", r.ReadMetrics}} {
			if len(ph.snap.Metrics) == 0 {
				continue
			}
			fmt.Fprintf(f, "# library=%s ranks=%d phase=%s\n", r.Library, r.Ranks, ph.name)
			if err := ph.snap.WriteProm(f,
				obs.Label{Key: "library", Value: r.Library},
				obs.Label{Key: "ranks", Value: strconv.Itoa(r.Ranks)},
				obs.Label{Key: "phase", Value: ph.name},
			); err != nil {
				f.Close()
				return err
			}
			fmt.Fprintln(f)
		}
	}
	return f.Close()
}

// runObsAblation is E14: the observability overhead experiment. The
// instrumentation layer never touches the virtual clock, so its real cost is
// host wall-clock only; each variant's full sweep repeats obsReps times and
// keeps the fastest wall time, the usual defense against scheduler noise.
// Virtual phase times carry a tiny (ppm-scale) scheduling jitter that
// pre-dates instrumentation — which rank wins an arena steal or rebuilds a
// variable's DRAM block index first is scheduling-dependent — so each
// variant's virtual times are compared in ppm against the baseline's own
// rep-to-rep jitter rather than for bit equality.
func runObsAblation(rankCounts []int, base harness.Params) ([]harness.Result, error) {
	const obsReps = 7
	variants := []struct {
		name    string
		lib     core.Library
		metrics bool
	}{
		// Counters are always on; "base" is the library as every other
		// experiment runs it. "hist" adds latency/shape histograms (the
		// WithMetrics surface plus per-phase snapshot capture), "trace"
		// additionally records operation spans with device persist points.
		{"base", core.Library{}, false},
		{"hist", core.Library{Metrics: true}, true},
		{"trace", core.Library{Metrics: true, Tracing: true}, true},
	}
	type row struct {
		name  string
		walls []time.Duration
		reps  [][]harness.Result
	}

	// Untimed warmup so the first timed variant doesn't absorb one-time costs
	// (page faults, allocator growth).
	if _, err := harness.Sweep([]harness.Entry{{Label: variants[0].name, Lib: variants[0].lib}}, rankCounts, base); err != nil {
		return nil, fmt.Errorf("obs ablation warmup: %w", err)
	}

	// Reps are interleaved round-robin across variants (not run as one block
	// per variant) so slow machine drift — thermal throttling, competing
	// load — lands on every variant equally. Overhead is the ratio of
	// per-variant median walls, which is robust to slow or lucky outlier
	// rounds on a shared machine.
	rows := make([]row, len(variants))
	for i, v := range variants {
		rows[i].name = v.name
	}
	for rep := 0; rep < obsReps; rep++ {
		for i, v := range variants {
			p := base
			p.Metrics = v.metrics
			t0 := time.Now()
			res, err := harness.Sweep([]harness.Entry{{Label: v.name, Lib: v.lib}}, rankCounts, p)
			wall := time.Since(t0)
			if err != nil {
				return nil, fmt.Errorf("obs ablation %q: %w", v.name, err)
			}
			rows[i].walls = append(rows[i].walls, wall)
			rows[i].reps = append(rows[i].reps, res)
		}
	}
	var all []harness.Result
	for i := range rows {
		all = append(all, rows[i].reps[len(rows[i].reps)-1]...)
	}

	// devPPM is the worst-case relative phase-time deviation between two
	// result sets, in parts per million, across both phases.
	devPPM := func(a, b []harness.Result) float64 {
		var worst float64
		rel := func(x, y time.Duration) float64 {
			if y == 0 {
				return 0
			}
			d := 1e6 * (float64(x) - float64(y)) / float64(y)
			if d < 0 {
				d = -d
			}
			return d
		}
		for i := range a {
			if d := rel(a[i].Write, b[i].Write); d > worst {
				worst = d
			}
			if d := rel(a[i].Read, b[i].Read); d > worst {
				worst = d
			}
		}
		return worst
	}
	baseRow := rows[0]
	ref := baseRow.reps[0]
	var baseJitter float64
	for _, rep := range baseRow.reps[1:] {
		if d := devPPM(rep, ref); d > baseJitter {
			baseJitter = d
		}
	}
	median := func(v []float64) float64 {
		s := append([]float64(nil), v...)
		sort.Float64s(s)
		return s[len(s)/2]
	}
	min := func(v []float64) float64 {
		m := v[0]
		for _, x := range v[1:] {
			if x < m {
				m = x
			}
		}
		return m
	}
	secs := func(ws []time.Duration) []float64 {
		out := make([]float64, len(ws))
		for j, w := range ws {
			out[j] = w.Seconds()
		}
		return out
	}
	baseWalls := secs(baseRow.walls)
	fmt.Printf("E14 — OBSERVABILITY OVERHEAD (host wall-clock of the full sweep, %d interleaved rounds):\n", obsReps)
	fmt.Printf("%-8s %10s %10s %10s  %s\n", "VARIANT", "MIN", "MEDIAN", "OVERHEAD", "VIRTUAL TIME VS BASE")
	fmt.Println(strings.Repeat("-", 84))
	var overheads []float64
	for i, r := range rows {
		walls := secs(r.walls)
		over := "-"
		if i != 0 {
			// Best-of: the minimum is the least noise-contaminated sample of
			// a CPU-bound run; everything above it is interference.
			o := 100 * (min(walls)/min(baseWalls) - 1)
			overheads = append(overheads, o)
			over = fmt.Sprintf("%+.2f%%", o)
		}
		var dev float64
		for _, rep := range r.reps {
			if d := devPPM(rep, ref); d > dev {
				dev = d
			}
		}
		verdict := fmt.Sprintf("dev %.1f ppm", dev)
		if i == 0 {
			verdict = fmt.Sprintf("self-jitter %.1f ppm", dev)
		}
		fmt.Printf("%-8s %9.3fs %9.3fs %10s  %s (base self-jitter %.1f ppm)\n",
			r.name, min(walls), median(walls), over, verdict, baseJitter)
	}
	noise := 100 * (median(baseWalls)/min(baseWalls) - 1)
	fmt.Printf("machine noise floor (base median vs min): %.1f%%\n", noise)
	worst := overheads[0]
	for _, o := range overheads[1:] {
		if o > worst {
			worst = o
		}
	}
	fmt.Printf("verdict: worst-case instrumentation overhead %+.2f%% (target < 2%%, noise floor %.1f%%)\n\n", worst, noise)
	return all, nil
}

func printFigures(fig string, results []harness.Result) {
	if fig == "6" || fig == "all" {
		fmt.Println("FIGURE 6 — I/O LIBRARY VS # PROCESSES (WRITES), time (s):")
		harness.Table(os.Stdout, results, "write")
		fmt.Println()
	}
	if fig == "7" || fig == "all" {
		fmt.Println("FIGURE 7 — I/O LIBRARY VS # PROCESSES (READS), time (s):")
		harness.Table(os.Stdout, results, "read")
		fmt.Println()
	}
}

// printClaims compares the measured series against the paper's headline
// statements at the reference process count (24 if present).
func printClaims(results []harness.Result, rankCounts []int) {
	ref := rankCounts[0]
	for _, n := range rankCounts {
		if n == 24 {
			ref = 24
		}
	}
	at := func(lib string) (harness.Result, bool) {
		for _, r := range results {
			if r.Library == lib && r.Ranks == ref {
				return r, true
			}
		}
		return harness.Result{}, false
	}
	a, okA := at("PMCPY-A")
	ad, okAd := at("ADIOS")
	nc, okNc := at("NetCDF")
	pn, okPn := at("pNetCDF")
	b, okB := at("PMCPY-B")
	if !(okA && okAd && okNc && okPn && okB) {
		return
	}
	fmt.Printf("PAPER CLAIMS AT %d PROCS (measured):\n", ref)
	fmt.Printf("  writes: PMCPY-A vs ADIOS   %.2fx faster (paper: ~1.15x)\n", harness.Speedup(ad, a, "write"))
	fmt.Printf("  writes: PMCPY-A vs NetCDF  %.2fx faster (paper: ~2.5x)\n", harness.Speedup(nc, a, "write"))
	fmt.Printf("  writes: PMCPY-A vs pNetCDF %.2fx faster (paper: ~2.5x)\n", harness.Speedup(pn, a, "write"))
	fmt.Printf("  reads:  PMCPY-A vs ADIOS   %.2fx faster (paper: ~2x)\n", harness.Speedup(ad, a, "read"))
	fmt.Printf("  reads:  PMCPY-A vs NetCDF  %.2fx faster (paper: ~5x)\n", harness.Speedup(nc, a, "read"))
	fmt.Printf("  reads:  PMCPY-B vs ADIOS   %.2fx (paper: ~1x, MAP_SYNC erases the benefit)\n",
		harness.Speedup(ad, b, "read"))
}

func runAblation(name string, rankCounts []int, base harness.Params) ([]harness.Result, error) {
	var libs []harness.Entry
	switch name {
	case "staging":
		libs = []harness.Entry{
			{Label: "direct", Lib: core.Library{}},
			{Label: "staged", Lib: core.Library{StagedSerialization: true}},
		}
	case "layout":
		libs = []harness.Entry{
			{Label: "hashtable", Lib: core.Library{}},
			{Label: "hierarchy", Lib: core.Library{Layout: core.LayoutHierarchy}},
		}
	case "mapsync":
		libs = []harness.Entry{{Lib: core.Library{}}, {Lib: core.Library{MapSync: true}}}
	case "serializer":
		libs = []harness.Entry{
			{Label: "bp4", Lib: core.Library{Codec: "bp4"}},
			{Label: "flat", Lib: core.Library{Codec: "flat"}},
			{Label: "cbin", Lib: core.Library{Codec: "cbin"}},
			{Label: "raw", Lib: core.Library{Codec: "raw"}},
		}
	case "parallel":
		// The copy-engine sweep: the paper's procs sweep reproduced as a
		// per-rank worker sweep (run with a fixed -procs, e.g. -procs 8).
		for _, k := range []int{1, 2, 4, 8, 16, 32, 48} {
			libs = append(libs, harness.Entry{Label: fmt.Sprintf("par=%d", k), Lib: core.Library{Parallelism: k}})
		}
	case "readparallel":
		// The gather-engine sweep: read-side mirror of "parallel". Writes are
		// kept serial so the write column stays flat and only the read column
		// responds to the worker count (run with a fixed -procs, e.g. -procs 8).
		for _, k := range []int{1, 2, 4, 8, 16, 32} {
			libs = append(libs, harness.Entry{Label: fmt.Sprintf("rpar=%d", k), Lib: core.Library{ReadParallelism: k}})
		}
	case "fill":
		libs = []harness.Entry{
			{Label: "nofill", Lib: netcdf.Library{}},
			{Label: "fill", Lib: netcdf.Library{Fill: true}},
		}
	case "chunked":
		libs = []harness.Entry{
			{Label: "contiguous", Lib: netcdf.Library{}},
			{Label: "chunked", Lib: netcdf.Library{Chunked: true}},
			{Label: "chunked+flt", Lib: netcdf.Library{Chunked: true, Filter: "shuffle+rle"}},
		}
	default:
		return nil, fmt.Errorf("unknown ablation %q", name)
	}
	return harness.Sweep(libs, rankCounts, base)
}

func parseProcs(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.Atoi(part)
		if err != nil || v <= 0 {
			return nil, fmt.Errorf("invalid process count %q", part)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no process counts given")
	}
	return out, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "pmembench:", err)
	os.Exit(1)
}
