package main

import (
	"math"
	"regexp"
	"runtime"
	"strings"
	"testing"
)

// The smoke test runs every workload at -scale tiny, untraced and traced,
// and checks what the benchmark promises about its own output.

func tiny(t *testing.T, workload string, seed uint64, trace bool) *result {
	t.Helper()
	runtime.GOMAXPROCS(2)
	sc, _ := scaleByName("tiny")
	res, err := measure(options{workload: workload, seed: seed, trace: trace, sc: sc})
	if err != nil {
		t.Fatalf("%s (trace=%v): %v", workload, trace, err)
	}
	if res.Failed != 0 || res.Attempted == 0 {
		t.Fatalf("%s (trace=%v): %d failed of %d attempted: %v", workload, trace, res.Failed, res.Attempted, res.ByKind)
	}
	return res
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// TestEveryMetricEmitted: every name in BENCHMARK.json is reported by every
// workload, finite, with the unit the contract gives; workloads match too.
func TestEveryMetricEmitted(t *testing.T) {
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	if got := len(spec.Workloads); got != len(workloadNames) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", got, len(workloadNames))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d: BENCHMARK.json says %q, the benchmark %q", i, w.Name, workloadNames[i])
		}
	}
	if len(spec.EndToEnd) != len(endToEndNames) || len(spec.PerLayer) != len(perLayerNames) {
		t.Fatalf("BENCHMARK.json lists %d+%d metrics, the benchmark reports %d+%d",
			len(spec.EndToEnd), len(spec.PerLayer), len(endToEndNames), len(perLayerNames))
	}
	check := func(res *result, name, unit string) {
		t.Helper()
		if !nameRE.MatchString(name) {
			t.Errorf("metric name %q is outside [A-Za-z0-9_.-]+", name)
		}
		m, ok := res.Metrics[name]
		switch {
		case !ok:
			t.Errorf("%s: %s not reported", res.Workload, name)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("%s: %s = %v", res.Workload, name, m.Value)
		case m.Unit != unit:
			t.Errorf("%s: %s has unit %q, BENCHMARK.json says %q", res.Workload, name, m.Unit, unit)
		}
	}
	for _, w := range workloadNames {
		plain, traced := tiny(t, w, 11, false), tiny(t, w, 11, true)
		for _, m := range spec.EndToEnd {
			check(plain, m.Name, m.Unit)
			if v := plain.Metrics[m.Name].Value; v <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w, m.Name, v)
			}
		}
		for _, m := range spec.PerLayer {
			check(traced, m.Name, m.Unit)
		}
		if !strings.HasPrefix(contractLine(plain), `{"correct":true,"attempted":`) {
			t.Errorf("%s: contract line is %.60s…", w, contractLine(plain))
		}
	}
}

// TestCountsRepeat: on the 1-rank workloads, two runs from one seed agree
// exactly on every virtual time and every device or pmdk count — so a change
// in one of them is a change in the code, not noise — and another seed gives
// another op stream. Go heap allocations per op agree to a part in a
// thousand, not exactly: runtime.MemStats.Mallocs also counts the runtime's
// own occasional allocations.
func TestCountsRepeat(t *testing.T) {
	exact := func(name string) bool {
		return strings.Contains(name, "_virt_us_") ||
			strings.HasPrefix(name, "pmem.persists") || strings.HasPrefix(name, "pmem.fences") ||
			strings.HasSuffix(name, "_b_per_user_b") ||
			name == "pmdk.tx_per_op" || name == "pmdk.allocs_per_op" || name == "pmdk.frees_per_op" ||
			name == "pmdk.aborts" || name == "space_amp"
	}
	for _, w := range []string{"smallkv", "stream-raw"} {
		for _, trace := range []bool{false, true} {
			a, b := tiny(t, w, 5, trace), tiny(t, w, 5, trace)
			if a.Digest != b.Digest {
				t.Errorf("%s: same seed, op-stream digests %s and %s", w, a.Digest, b.Digest)
			}
			for name, m := range a.Metrics {
				other := b.Metrics[name].Value
				if exact(name) && m.Value != other {
					t.Errorf("%s: %s differs between two runs of seed 5: %v vs %v", w, name, m.Value, other)
				}
				if strings.Contains(name, "_allocs_") && math.Abs(m.Value-other) > 1e-3*m.Value {
					t.Errorf("%s: %s differs between two runs of seed 5 by more than 0.1%%: %v vs %v", w, name, m.Value, other)
				}
			}
		}
		if a, c := tiny(t, w, 5, false), tiny(t, w, 6, false); a.Digest == c.Digest {
			t.Errorf("%s: seeds 5 and 6 give the same op-stream digest %s", w, a.Digest)
		}
	}
}

// TestLadderCloses: for every sampled call in the span file, the replayed
// layer spans directly under it plus the recorded residual are exactly the
// call's own span — the rungs sum to the end-to-end number by construction.
func TestLadderCloses(t *testing.T) {
	for _, w := range workloadNames {
		res := tiny(t, w, 7, true)
		type key struct {
			rank int
			id   int32
		}
		children := make(map[key]int64)
		for _, s := range res.spans {
			if s.Parent >= 0 {
				children[key{s.Rank, s.Parent}] += s.EndNS - s.StartNS
			}
		}
		sampled := 0
		for _, s := range res.spans {
			if s.Parent >= 0 || !s.Sampled {
				continue
			}
			sampled++
			if got, want := children[key{s.Rank, s.ID}]+s.ResidualNS, s.EndNS-s.StartNS; got != want {
				t.Errorf("%s: %s (rank %d call %d): children + residual = %d ns, span = %d ns", w, s.Name, s.Rank, s.Call, got, want)
			}
		}
		if sampled == 0 {
			t.Errorf("%s: the span file holds no sampled call", w)
		}
		for _, name := range phaseNames {
			sum := res.Ladder[name+"/core.residual"]
			for k, v := range res.Ladder {
				if strings.HasPrefix(k, name+"/") && !strings.HasSuffix(k, "/core.residual") && !strings.HasSuffix(k, "/sampled_call_span") {
					sum += v
				}
			}
			if span := res.Ladder[name+"/sampled_call_span"]; math.Abs(sum-span) > 1e-6*math.Max(1, math.Abs(span)) {
				t.Errorf("%s: %s ladder sums to %v ns/op, sampled call spans to %v", w, name, sum, span)
			}
		}
	}
}
