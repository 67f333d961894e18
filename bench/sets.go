package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// benchmarkSpec is /BENCHMARK.json, the contract this program is run under.
type benchmarkSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// loadSpec reads BENCHMARK.json from the repository root, whether the
// benchmark was started there or in its own directory.
func loadSpec() (*benchmarkSpec, error) {
	var firstErr error
	for _, p := range []string{"BENCHMARK.json", "../BENCHMARK.json"} {
		b, err := os.ReadFile(p)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		var s benchmarkSpec
		if err := json.Unmarshal(b, &s); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		return &s, nil
	}
	return nil, firstErr
}

// runSets runs n complete sets of the four workloads back to back,
// alternating the workload order, and compares, for every end-to-end metric
// on every workload, the spread between the sets' values with the metric's
// bound. It fails when one exceeds it.
func runSets(n int, seed uint64, seconds float64, sc *scale) error {
	spec, err := loadSpec()
	if err != nil {
		return err
	}
	values := make(map[string]map[string][]float64) // workload -> metric -> per set
	for set := 0; set < n; set++ {
		order := append([]string(nil), workloadNames...)
		if set%2 == 1 {
			for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
				order[i], order[j] = order[j], order[i]
			}
		}
		for _, name := range order {
			res, err := measure(options{workload: name, seed: seed, seconds: seconds, sc: sc})
			if err != nil {
				return err
			}
			fmt.Printf("set %d  %-13s %d rounds, %d failed of %d\n", set+1, name, res.Rounds, res.Failed, res.Attempted)
			if res.Failed > 0 {
				return fmt.Errorf("%s: %d ops failed", name, res.Failed)
			}
			if values[name] == nil {
				values[name] = make(map[string][]float64)
			}
			for m, v := range res.Metrics {
				values[name][m] = append(values[name][m], v.Value)
			}
		}
	}
	fmt.Printf("\n%-13s %-24s %10s %8s  values\n", "workload", "metric", "spread", "bound")
	bad := 0
	for _, name := range workloadNames {
		for _, m := range spec.EndToEnd {
			v := values[name][m.Name]
			spread := relSpread(v)
			flag := ""
			if spread > m.Bound {
				flag = "  EXCEEDS BOUND"
				bad++
			}
			fmt.Printf("%-13s %-24s %9.2f%% %7.0f%%  %v%s\n", name, m.Name, 100*spread, 100*m.Bound, v, flag)
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d metric x workload pairs disagree between sets by more than their bound", bad)
	}
	return nil
}
