package harness

import (
	"testing"

	"pmemcpy/internal/core"
)

// TestLabelledEntryIsConfigured pins that a sweep entry's display label is
// only a label: the library under it still receives the run's Capabilities.
// A labelled raw-codec library is swept with Pools and Parallelism set in
// Params alone, and the captured snapshot must show every store striped over
// every member pool.
func TestLabelledEntryIsConfigured(t *testing.T) {
	p := smallParams(1)
	p.Vars = 2 // two slabs, each far above the parallel-store threshold
	p.Pools = 4
	p.Parallelism = 4
	p.Metrics = true
	lib := core.Library{Codec: "raw"}

	res, err := Sweep([]Entry{{Label: "harness-pools4", Lib: lib}}, []int{1}, p)
	if err != nil {
		t.Fatal(err)
	}
	got := res[0]
	if got.Library != "harness-pools4" {
		t.Errorf("result carries library name %q, want the entry's label", got.Library)
	}
	// One rank is deterministic: the label must not move virtual time.
	ref, err := Run(lib, p)
	if err != nil {
		t.Fatal(err)
	}
	if got.Write != ref.Write || got.Read != ref.Read {
		t.Errorf("labelled run write=%v read=%v, unlabelled %v/%v", got.Write, got.Read, ref.Write, ref.Read)
	}

	var parallelStores int64
	for _, m := range got.WriteMetrics.Metrics {
		if m.Name == "pmemcpy_op_total" && len(m.Labels) == 2 &&
			m.Labels[0].Value == "store_block" && m.Labels[1].Value == "parallel" {
			parallelStores = m.Value
		}
	}
	if parallelStores != int64(p.Vars) {
		t.Errorf("%d stores took the parallel path, want %d: Params.Parallelism did not reach the library",
			parallelStores, p.Vars)
	}
	// Every member pool is formatted in a transaction of its own, and a
	// striped store allocates in one transaction per member pool.
	wantTx := int64(p.Pools + p.Vars*p.Pools)
	if tx := got.WriteMetrics.Get("pmemcpy_alloc_transactions_total"); tx < wantTx {
		t.Errorf("%d pool transactions, want >= %d: Params.Pools did not reach the library", tx, wantTx)
	}
}
