// Command benchjson keeps the benchmark trajectory: one BENCH_<n>.json per
// change, and a comparison of two of them under BENCHMARK.json's bounds.
//
//	go run ./cmd/benchjson -pr N                  # make bench-json PR=N
//	go run ./cmd/benchjson -pr N -dir ../other    # another checkout; the file is written there
//	go run ./cmd/benchjson -diff BENCH_M.json BENCH_N.json   # make bench-diff A=M B=N
//
// Recording runs `bash bench/run.sh --workload <w> --seed 7 --seconds 20
// --trace 0` in the checkout for each workload BENCHMARK.json names, one run
// each, and keeps what the run's last line reports (the end-to-end cells,
// correctness and failed ops). Beside them go the checkout's non-test code
// lines (`make -s loc`), the persist and read columns of
// internal/core/testdata/persist_budget.golden, the host as the benchmark
// stamped it (bench/out/result-<w>.json) and the commit, git HEAD. A checkout
// with uncommitted changes to tracked files is refused, before the runs and
// again before the write, so every file names the commit it measured.
//
// The diff prints every end-to-end cell of the two files with its relative
// change and bound, and exits 1 when a cell got worse by more than its bound or
// a workload failed more of its operations. Files recorded with another seed
// or run length are refused. One run per cell is a trajectory, not a verdict:
// a claim is settled by paired rounds.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"maps"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
)

// The run every BENCH file records: ROADMAP's trajectory settings, and the
// contract (read from the working directory) that names workloads and bounds.
const seed, seconds, contractPath = 7, 20, "BENCHMARK.json"

// contract is the part of BENCHMARK.json the tool reads.
type contract struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []cell `json:"end_to_end"`
}

type cell struct {
	Name   string  `json:"name"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// runLine is the last line bench/run.sh prints for one workload.
type runLine struct {
	Correct   bool  `json:"correct"`
	Attempted int64 `json:"attempted"`
	Failed    int64 `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

// workload is one workload's entry in a BENCH file.
type workload struct {
	Correct   bool               `json:"correct"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Metrics   map[string]float64 `json:"metrics"`
}

// budgetRow is one persist_budget.golden row's barrier and read counts.
type budgetRow struct {
	Persists int64 `json:"persists"`
	Reads    int64 `json:"reads"`
}

// benchFile is BENCH_<n>.json.
type benchFile struct {
	PR            int                  `json:"pr"`
	Commit        string               `json:"commit"`
	Host          json.RawMessage      `json:"host"`
	Seed          uint64               `json:"seed"`
	Seconds       float64              `json:"seconds"`
	LocNonTest    int                  `json:"loc_nontest"`
	PersistBudget map[string]budgetRow `json:"persist_budget"`
	Workloads     map[string]workload  `json:"workloads"`
}

func main() {
	var (
		pr   = flag.Int("pr", 0, "record BENCH_<pr>.json")
		dir  = flag.String("dir", ".", "checkout to benchmark (with -pr); the file is written there")
		diff = flag.Bool("diff", false, "compare the two BENCH files named as arguments")
	)
	flag.Parse()
	c, err := readContract(contractPath)
	switch {
	case err != nil:
	case *diff && flag.NArg() == 2:
		var worse bool
		if worse, err = diffFiles(c, flag.Arg(0), flag.Arg(1)); err == nil && worse {
			os.Exit(1)
		}
	case !*diff && *pr > 0 && flag.NArg() == 0:
		err = record(c, *pr, *dir)
	default:
		err = errors.New("usage: benchjson -pr N [-dir D] | benchjson -diff A.json B.json")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(2)
	}
}

func readContract(path string) (c contract, err error) {
	b, err := os.ReadFile(path)
	if err == nil {
		err = json.Unmarshal(b, &c)
	}
	return c, err
}

func record(c contract, pr int, dir string) error {
	if _, err := commit(dir); err != nil {
		return err
	}
	f := benchFile{PR: pr, Seed: seed, Seconds: seconds, Workloads: map[string]workload{}}
	for _, w := range c.Workloads {
		cmd := exec.Command("bash", "bench/run.sh", "--workload", w.Name,
			"--seed", strconv.Itoa(seed), "--seconds", strconv.Itoa(seconds), "--trace", "0")
		cmd.Dir, cmd.Stderr = dir, os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("%s: %w", w.Name, err)
		}
		lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
		var r runLine
		if err := json.Unmarshal(lines[len(lines)-1], &r); err != nil {
			return fmt.Errorf("%s: last line: %w", w.Name, err)
		}
		wl := workload{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]float64{}}
		for _, e := range c.EndToEnd {
			wl.Metrics[e.Name] = r.Metrics[e.Name].Value
		}
		f.Workloads[w.Name] = wl
		fmt.Fprintf(os.Stderr, "benchjson: %s done\n", w.Name)
		if f.Host == nil {
			var res struct {
				Env json.RawMessage `json:"env"`
			}
			if b, err := os.ReadFile(filepath.Join(dir, "bench", "out", "result-"+w.Name+".json")); err == nil && json.Unmarshal(b, &res) == nil {
				f.Host = res.Env
			}
		}
	}
	var err error
	if f.LocNonTest, err = locNonTest(dir); err != nil {
		return err
	}
	if f.PersistBudget, err = persistBudget(filepath.Join(dir, "internal", "core", "testdata", "persist_budget.golden")); err != nil {
		return err
	}
	if f.Commit, err = commit(dir); err != nil {
		return err
	}
	b, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("BENCH_%d.json", pr))
	fmt.Fprintln(os.Stderr, "benchjson: wrote", path)
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// commit returns the checkout's HEAD, and refuses a checkout whose tracked
// files differ from it.
func commit(dir string) (string, error) {
	if st := git(dir, "status", "--porcelain", "--untracked-files=no"); st != "" {
		return "", fmt.Errorf("%s has uncommitted changes; commit them first, so the file names the commit it measured:\n%s", dir, st)
	}
	return git(dir, "rev-parse", "--short", "HEAD"), nil
}

// git returns the trimmed output of a git command in dir, "" on failure.
func git(dir string, args ...string) string {
	out, err := exec.Command("git", append([]string{"-C", dir}, args...)...).Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(out))
}

// locNonTest is the code column of `make -s loc`'s total row.
func locNonTest(dir string) (int, error) {
	out, err := exec.Command("make", "-s", "-C", dir, "loc").Output()
	if err != nil {
		return 0, fmt.Errorf("make loc: %w", err)
	}
	for _, line := range strings.Split(string(out), "\n") {
		if f := strings.Fields(line); len(f) == 3 && f[2] == "total" {
			return strconv.Atoi(f[1])
		}
	}
	return 0, errors.New("make loc printed no total")
}

// persistBudget reads "name pools=N persists=P fences=F reads=R" rows, keyed
// by "name pools=N".
func persistBudget(path string) (map[string]budgetRow, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	rows := map[string]budgetRow{}
	sc := bufio.NewScanner(bytes.NewReader(b))
	for sc.Scan() {
		var name string
		var pools, fences int
		var r budgetRow
		if _, err := fmt.Sscanf(sc.Text(), "%s pools=%d persists=%d fences=%d reads=%d",
			&name, &pools, &r.Persists, &fences, &r.Reads); err != nil {
			return nil, fmt.Errorf("%s: %q: %w", path, sc.Text(), err)
		}
		rows[fmt.Sprintf("%s pools=%d", name, pools)] = r
	}
	return rows, sc.Err()
}

func readBench(path string) (f benchFile, err error) {
	b, err := os.ReadFile(path)
	if err == nil {
		err = json.Unmarshal(b, &f)
	}
	if err != nil {
		err = fmt.Errorf("%s: %w", path, err)
	}
	return f, err
}

// change is b relative to a, signed so that positive is worse.
func change(e cell, a, b float64) float64 {
	if a == 0 {
		if b == a {
			return 0
		}
		a = 1e-12
	}
	d := (b - a) / a
	if e.Better == "higher" {
		d = -d
	}
	return d
}

// diffFiles prints the comparison and reports whether a cell got worse by
// more than its bound or a workload failed more of its operations.
func diffFiles(c contract, pa, pb string) (worse bool, err error) {
	a, err := readBench(pa)
	if err != nil {
		return false, err
	}
	b, err := readBench(pb)
	if err != nil {
		return false, err
	}
	if a.Seed != b.Seed || a.Seconds != b.Seconds {
		return false, fmt.Errorf("%s (seed %d, %g s) and %s (seed %d, %g s) are different runs", pa, a.Seed, a.Seconds, pb, b.Seed, b.Seconds)
	}
	fmt.Printf("%s (PR %d, %s) -> %s (PR %d, %s)\n", pa, a.PR, a.Commit, pb, b.PR, b.Commit)
	fmt.Printf("%-14s %-22s %14s %14s %9s %7s\n", "workload", "cell", "A", "B", "worse by", "bound")
	for _, w := range c.Workloads {
		wa, wb := a.Workloads[w.Name], b.Workloads[w.Name]
		for _, e := range c.EndToEnd {
			d := change(e, wa.Metrics[e.Name], wb.Metrics[e.Name])
			mark := ""
			if d > e.Bound {
				mark, worse = "  WORSE", true
			}
			fmt.Printf("%-14s %-22s %14.6g %14.6g %+8.1f%% %6.0f%%%s\n",
				w.Name, e.Name, wa.Metrics[e.Name], wb.Metrics[e.Name], 100*d, 100*e.Bound, mark)
		}
		if share(wb) > share(wa) || !wb.Correct {
			fmt.Printf("%-14s failed ops %d of %d -> %d of %d, correct %v  WORSE\n",
				w.Name, wa.Failed, wa.Attempted, wb.Failed, wb.Attempted, wb.Correct)
			worse = true
		}
	}
	fmt.Printf("loc_nontest %d -> %d\n", a.LocNonTest, b.LocNonTest)
	for _, name := range slices.Sorted(maps.Keys(b.PersistBudget)) {
		if ra, rb := a.PersistBudget[name], b.PersistBudget[name]; ra != rb {
			fmt.Printf("persist_budget %-28s persists %d -> %d, reads %d -> %d\n", name, ra.Persists, rb.Persists, ra.Reads, rb.Reads)
		}
	}
	return worse, nil
}

func share(w workload) float64 {
	if w.Attempted == 0 {
		return 0
	}
	return float64(w.Failed) / float64(w.Attempted)
}
