// Command bench is the repository's benchmark: four named workloads, each
// reported in two time domains (wall: host time of the Go code; virt: time
// on the modelled 24-core PMEM node's sim.Clock), and a per-layer ladder
// measured from outside the product code. See README.md beside this file and
// /BENCHMARK.json.
//
// It is a closed loop driven from one process with GOMAXPROCS pinned to 2
// and never more than 2 rank goroutines; every key, offset and payload comes
// from -seed, and the library only ever sees the generated inputs.
//
//	go run -C bench . -workload smallkv -seed 7 -seconds 20 -trace 0
//	go run -C bench .              # all four workloads
//	go run -C bench . -trace 1     # the traced runs: per-layer metrics, span files
//	go run -C bench . -sets 2      # run-to-run agreement against the bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
)

// envInfo is recorded in every output file: latencies are this host's.
type envInfo struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	LLC        string `json:"llc_size"`
	Seed       uint64 `json:"seed"`
	GitCommit  string `json:"git_commit"`
}

// hostEnv is everything in envInfo but the seed, looked up once.
var hostEnv = sync.OnceValue(func() envInfo {
	e := envInfo{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		CPUModel: "unknown", LLC: "unknown", GitCommit: "unknown",
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				e.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	// The last-level cache is the highest cache index cpu0 reports.
	if m, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*/size"); len(m) > 0 {
		sort.Strings(m)
		if b, err := os.ReadFile(m[len(m)-1]); err == nil {
			e.LLC = strings.TrimSpace(string(b))
		}
	}
	// Outside a git checkout (the benchmark driver's) this stays unknown.
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		e.GitCommit = strings.TrimSpace(string(out))
	}
	return e
})

func environment(seed uint64) envInfo {
	e := hostEnv()
	e.Seed = seed
	return e
}

// outDir is where result and span files go: bench/out, wherever the
// benchmark was started from.
func outDir() string {
	if _, err := os.Stat("bench/go.mod"); err == nil {
		return filepath.Join("bench", "out")
	}
	return "out"
}

func writeJSON(name string, v any) error {
	if err := os.MkdirAll(outDir(), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(outDir(), name), append(b, '\n'), 0o644)
}

// save writes a run's numbers (and, traced, its spans) under outDir.
func save(res *result) error {
	suffix := ""
	if res.Traced {
		suffix = "-trace"
		file := struct {
			Env   envInfo `json:"env"`
			Note  string  `json:"note"`
			Spans []span  `json:"spans"`
		}{res.Env, spanNote, res.spans}
		if err := writeJSON("trace-"+res.Workload+".json", file); err != nil {
			return err
		}
	}
	return writeJSON("result-"+res.Workload+suffix+".json", res)
}

const spanNote = "spans of the first traced rounds; parent -1 is an API call made by the benchmark; " +
	"replayed spans were measured on a scratch pool after their parent returned, so their durations nest, " +
	"their timestamps do not; for a sampled call, sum(direct children durations) + residual_ns == end_ns - start_ns " +
	"(children named pmem.copy under serial.encode are nested measurements: their parent is the encode span)"

// report prints a run's metrics by name with their units.
func report(res *result) {
	mode := "untraced: end-to-end metrics"
	names := endToEndNames
	if res.Traced {
		mode, names = "traced: per-layer metrics", perLayerNames
	}
	fmt.Printf("\n== %s  (seed %d, scale %s, %d rounds, %s)\n", res.Workload, res.Seed, res.Scale, res.Rounds, mode)
	for _, n := range names {
		m := res.Metrics[n]
		line := fmt.Sprintf("  %-32s %14.4f %-8s", n, m.Value, m.Unit)
		if d, ok := res.Dists[n]; ok {
			line += fmt.Sprintf("  p25 %.4f  p75 %.4f  n=%d", d.P25, d.P75, d.N)
			if d.TailPct > 0 {
				line += fmt.Sprintf("  p%g %.4f", d.TailPct, d.Tail)
			}
		}
		fmt.Println(line)
	}
	for _, ph := range phaseNames {
		if d, ok := res.Dists["core."+ph+"_op_ns"]; ok {
			fmt.Printf("  %-32s median %.0f ns  p%g %.0f ns  n=%d\n", "core."+ph+" op span", d.Median, d.TailPct, d.Tail, d.N)
		}
	}
	if len(res.Ladder) > 0 {
		fmt.Println("  ladder, ns per op (layer spans + core.residual = sampled_call_span):")
		keys := make([]string, 0, len(res.Ladder))
		for k := range res.Ladder {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Printf("    %-34s %12.1f\n", k, res.Ladder[k])
		}
	}
	share := 0.0
	if res.Attempted > 0 {
		share = float64(res.Failed) / float64(res.Attempted)
	}
	fmt.Printf("  %-32s %14g ratio     (%d failed of %d attempted)\n", "ops_failed_share", share, res.Failed, res.Attempted)
	kinds := make([]string, 0, len(res.ByKind))
	for k := range res.ByKind {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		fmt.Printf("    %-30s attempted %9d  failed %d\n", k, res.ByKind[k][0], res.ByKind[k][1])
	}
	fmt.Printf("  op-stream digest %s\n", res.Digest)
}

// contractLine is the single JSON object the benchmark driver reads from the
// last line of standard output.
func contractLine(res *result) string {
	names := endToEndNames
	if res.Traced {
		names = perLayerNames
	}
	ms := make(map[string]metric, len(names))
	for _, n := range names {
		ms[n] = res.Metrics[n]
	}
	b, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.Failed == 0, res.Attempted, res.Failed, ms})
	if err != nil {
		panic(err) // plain numbers and strings always marshal
	}
	return string(b)
}

func run() error {
	var (
		workloadF = flag.String("workload", "", "one of "+strings.Join(workloadNames, ", ")+" (default: all four in turn)")
		seed      = flag.Uint64("seed", 1, "seed every key, offset and payload is generated from")
		seconds   = flag.Float64("seconds", 20, "measurement time per workload run")
		trace     = flag.Int("trace", 0, "1: traced run (per-layer metrics and span files); 0: end-to-end metrics")
		sets      = flag.Int("sets", 0, "run N complete sets back to back and compare their medians against the bounds")
		scaleF    = flag.String("scale", "full", "full, or tiny (toy sizes, fixed round counts; for the smoke test)")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", flag.Arg(0))
	}
	if runtime.NumCPU() < 2 {
		return fmt.Errorf("the benchmark needs 2 CPUs (2 rank goroutines), this host has %d", runtime.NumCPU())
	}
	runtime.GOMAXPROCS(2)
	sc, ok := scaleByName(*scaleF)
	if !ok {
		return fmt.Errorf("unknown -scale %q", *scaleF)
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("-trace takes 0 or 1")
	}
	if *sets > 0 {
		return runSets(*sets, *seed, *seconds, sc)
	}
	names := workloadNames
	if *workloadF != "" {
		names = []string{*workloadF}
	}
	var last *result
	for _, name := range names {
		res, err := measure(options{workload: name, seed: *seed, seconds: *seconds, trace: *trace == 1, sc: sc})
		if err != nil {
			return err
		}
		report(res)
		if err := save(res); err != nil {
			return err
		}
		last = res
		runtime.GC()
	}
	if *workloadF != "" {
		fmt.Println(contractLine(last))
	}
	return nil
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}
