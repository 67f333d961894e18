package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestDiffHoldsBounds: a cell that got worse by more than its bound fails the
// diff, in either direction of "better", and a change within the bound or an
// improvement does not; files recorded with another seed are refused.
func TestDiffHoldsBounds(t *testing.T) {
	c, err := readContract(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil || len(c.Workloads) == 0 {
		t.Fatalf("reading the contract: %d workloads, %v", len(c.Workloads), err)
	}
	c.EndToEnd = []cell{
		{Name: "load_us_per_op", Better: "lower", Bound: 0.25},
		{Name: "hit_ratio", Better: "higher", Bound: 0.02},
	}
	write := func(name string, load, hit float64) string {
		f := benchFile{Seed: seed, Seconds: seconds, Workloads: map[string]workload{}}
		for _, w := range c.Workloads {
			f.Workloads[w.Name] = workload{Correct: true, Attempted: 100,
				Metrics: map[string]float64{"load_us_per_op": load, "hit_ratio": hit}}
		}
		b, _ := json.Marshal(f)
		path := filepath.Join(t.TempDir(), name)
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("a.json", 4, 0.9)
	for _, tc := range []struct {
		name      string
		load, hit float64
		worse     bool
	}{
		{"improved", 2.8, 0.95, false},
		{"within the bounds", 4.8, 0.89, false},
		{"lower-is-better cell past its bound", 5.2, 0.9, true},
		{"higher-is-better cell past its bound", 4, 0.8, true},
	} {
		worse, err := diffFiles(c, base, write("b.json", tc.load, tc.hit))
		if err != nil || worse != tc.worse {
			t.Errorf("%s: worse = %v, %v; want %v", tc.name, worse, err, tc.worse)
		}
	}
	// A file recorded with another seed is not a trajectory point of the same run.
	b, _ := json.Marshal(benchFile{Seed: seed + 1, Seconds: seconds})
	other := filepath.Join(t.TempDir(), "other.json")
	if err := os.WriteFile(other, b, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := diffFiles(c, base, other); err == nil {
		t.Error("diffFiles compared files recorded with different seeds")
	}
}

// TestPersistBudgetRows reads the committed golden: every row parses, keyed
// by step and pool count.
func TestPersistBudgetRows(t *testing.T) {
	rows, err := persistBudget(filepath.Join("..", "..", "internal", "core", "testdata", "persist_budget.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if r, ok := rows["scalar-load pools=1"]; !ok || r.Persists != 0 || r.Reads == 0 {
		t.Fatalf("scalar-load pools=1 = %+v, %v; want a read-only row", r, ok)
	}
	if r := rows["scalar-overwrite pools=4"]; r.Persists == 0 {
		t.Fatalf("scalar-overwrite pools=4 = %+v; want persists", r)
	}
}
