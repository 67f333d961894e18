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
	"strconv"
	"strings"

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
