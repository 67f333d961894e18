package obs

import (
	"encoding/json"
	"errors"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"pmemcpy/internal/pmem"
	"pmemcpy/internal/sim"
)

func TestBucketIndexBounds(t *testing.T) {
	cases := []struct {
		v    int64
		want int
	}{
		{-5, 0}, {0, 0}, {1, 1}, {2, 2}, {3, 2}, {4, 3}, {7, 3}, {8, 4},
		{1023, 10}, {1024, 11}, {math.MaxInt64, HistogramBuckets - 1},
	}
	for _, c := range cases {
		if got := bucketIndex(c.v); got != c.want {
			t.Errorf("bucketIndex(%d) = %d, want %d", c.v, got, c.want)
		}
		// The defining invariant: v < BucketBound(i) and (for i > 0)
		// v >= BucketBound(i-1).
		i := bucketIndex(c.v)
		if i < HistogramBuckets-1 && c.v >= BucketBound(i) {
			t.Errorf("v %d not below bound %d of its bucket %d", c.v, BucketBound(i), i)
		}
		if i > 0 && c.v < BucketBound(i-1) {
			t.Errorf("v %d below bound %d of previous bucket %d", c.v, BucketBound(i-1), i-1)
		}
	}
	if BucketBound(HistogramBuckets-1) != math.MaxInt64 {
		t.Errorf("last bucket bound = %d, want MaxInt64", BucketBound(HistogramBuckets-1))
	}
}

func TestHistogramObserve(t *testing.T) {
	var h Histogram
	for _, v := range []int64{0, 1, 3, 3, 100} {
		h.Observe(v)
	}
	if h.Count() != 5 || h.Sum() != 107 {
		t.Fatalf("count=%d sum=%d, want 5, 107", h.Count(), h.Sum())
	}
	if got := h.buckets[bucketIndex(3)].Load(); got != 2 {
		t.Errorf("bucket holding 3 has %d observations, want 2", got)
	}
}

func TestRegistryDedup(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("ops_total", "ops", Label{"op", "store"})
	b := r.Counter("ops_total", "ops", Label{"op", "store"})
	if a != b {
		t.Error("same (name, labels) returned distinct counters")
	}
	c := r.Counter("ops_total", "ops", Label{"op", "load"})
	if a == c {
		t.Error("distinct labels returned the same counter")
	}
	a.Inc()
	b.Inc()
	c.Inc()
	s := r.Snapshot()
	if len(s.Metrics) != 2 {
		t.Fatalf("snapshot has %d series, want 2", len(s.Metrics))
	}
	if got := s.Get("ops_total"); got != 3 {
		t.Errorf("Get sums %d, want 3", got)
	}
}

func TestSnapshotStableOrderAndJSON(t *testing.T) {
	r := NewRegistry()
	r.GaugeFunc("zeta", "", func() int64 { return 9 })
	r.Counter("alpha", "", Label{"op", "b"}).Add(2)
	r.Counter("alpha", "", Label{"op", "a"}).Inc()
	r.GaugeFunc("mid", "", func() int64 { return 7 })
	s := r.Snapshot()
	var names []string
	for _, m := range s.Metrics {
		names = append(names, m.Name+labelString(m.Labels))
	}
	want := []string{`alpha{op="a"}`, `alpha{op="b"}`, "mid", "zeta"}
	if strings.Join(names, "|") != strings.Join(want, "|") {
		t.Errorf("snapshot order %v, want %v", names, want)
	}
	// The snapshot must survive a JSON round trip unchanged — it is the
	// Metrics() wire schema.
	raw, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if len(back.Metrics) != len(s.Metrics) || back.Get("alpha") != 3 || back.Get("mid") != 7 {
		t.Errorf("JSON round trip mutated the snapshot: %s", raw)
	}
}

func TestWriteProm(t *testing.T) {
	r := NewRegistry()
	r.Counter("pm_ops_total", "completed ops", Label{"op", "store"}).Add(4)
	h := r.Histogram("pm_latency_ns", "op latency")
	h.Observe(1)
	h.Observe(3)
	h.Observe(3)
	var b strings.Builder
	if err := r.Snapshot().WriteProm(&b, Label{"phase", "write"}); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	wantLines := []string{
		"# HELP pm_latency_ns op latency",
		"# TYPE pm_latency_ns histogram",
		`pm_latency_ns_bucket{phase="write",le="2"} 1`,
		`pm_latency_ns_bucket{phase="write",le="4"} 3`, // cumulative
		`pm_latency_ns_bucket{phase="write",le="+Inf"} 3`,
		`pm_latency_ns_sum{phase="write"} 7`,
		`pm_latency_ns_count{phase="write"} 3`,
		"# TYPE pm_ops_total counter",
		`pm_ops_total{op="store",phase="write"} 4`,
	}
	for _, l := range wantLines {
		if !strings.Contains(out, l+"\n") {
			t.Errorf("exposition missing line %q\ngot:\n%s", l, out)
		}
	}
	if strings.Count(out, "# TYPE pm_latency_ns histogram") != 1 {
		t.Error("TYPE header emitted more than once per family")
	}
}

// TestConcurrentIncrements drives counters, histograms, and snapshots from
// many goroutines at once; under -race this pins the lock-free instrument
// contract.
func TestConcurrentIncrements(t *testing.T) {
	r := NewRegistry()
	const workers, perWorker = 8, 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Half the workers register their own handle to the same series,
			// exercising the dedup path concurrently with increments.
			ctr := r.Counter("conc_total", "")
			h := r.Histogram("conc_ns", "")
			for i := 0; i < perWorker; i++ {
				ctr.Inc()
				h.Observe(int64(i))
				if i%500 == 0 {
					_ = r.Snapshot()
				}
			}
		}(w)
	}
	wg.Wait()
	s := r.Snapshot()
	if got := s.Get("conc_total"); got != workers*perWorker {
		t.Errorf("counter = %d, want %d", got, workers*perWorker)
	}
	if got := s.Get("conc_ns"); got != workers*perWorker {
		t.Errorf("histogram count = %d, want %d", got, workers*perWorker)
	}
}

func TestTracerNesting(t *testing.T) {
	tr := NewTracer(0)
	clk := new(sim.Clock)
	other := new(sim.Clock)
	pt := pmem.RegisterPoint("obs.test.point")

	// Outer op issues a persist, then a nested op issues one, then the outer
	// issues another after the child closes. A second rank's op interleaves.
	tr.StartOp(clk, "store_datum", "x", 0)
	clk.Advance(10 * time.Nanosecond)
	tr.DeviceEvent(clk, pmem.TraceEvent{Point: pt, Off: 64, Bytes: 256})
	tr.StartOp(other, "load_datum", "y", 1)
	tr.StartOp(clk, "store_block", "x", 0)
	clk.Advance(5 * time.Nanosecond)
	tr.DeviceEvent(clk, pmem.TraceEvent{Point: pt, Off: 512, Bytes: 8})
	tr.EndOp(clk, nil)
	tr.DeviceEvent(clk, pmem.TraceEvent{Point: pt, Off: 0, Bytes: 64})
	tr.EndOp(clk, errors.New("boom"))
	tr.EndOp(other, nil)

	spans := tr.Spans()
	if len(spans) != 2 {
		t.Fatalf("got %d root spans, want 2", len(spans))
	}
	root := spans[0]
	if root.Op != "store_datum" || root.Err != "boom" || root.StartNS != 0 || root.EndNS != 15 {
		t.Errorf("root span = %+v", root)
	}
	if len(root.Children) != 1 || root.Children[0].Op != "store_block" {
		t.Fatalf("root children = %+v, want one store_block", root.Children)
	}
	// One persist landed inside the nested span, the other two on the outer.
	if got := root.Children[0].Points; len(got) != 1 || got[0].Off != 512 || got[0].Bytes != 8 {
		t.Errorf("child points = %+v, want the one at 512", got)
	}
	if len(root.Points) != 2 || root.Points[0].Off != 64 || root.Points[1].AtNS != 15 {
		t.Errorf("root points = %+v, want two persists", root.Points)
	}
	if root.Points[0].Point != "obs.test.point" {
		t.Errorf("point name = %q", root.Points[0].Point)
	}
	if spans[1].Op != "load_datum" || spans[1].Rank != 1 {
		t.Errorf("second root = %+v", spans[1])
	}
	if tr.OrphanPoints() != 0 {
		t.Errorf("orphan points = %d, want 0", tr.OrphanPoints())
	}

	// An event with no active span is counted as an orphan, not recorded.
	tr.DeviceEvent(clk, pmem.TraceEvent{Point: pt})
	if tr.OrphanPoints() != 1 {
		t.Errorf("orphan points = %d, want 1", tr.OrphanPoints())
	}
}

func TestTracerLimitAndDropped(t *testing.T) {
	tr := NewTracer(2)
	clk := new(sim.Clock)
	for i := 0; i < 4; i++ {
		tr.StartOp(clk, "op", "", 0)
		tr.EndOp(clk, nil)
	}
	if got := len(tr.Spans()); got != 2 {
		t.Errorf("kept %d spans, want 2", got)
	}
	if tr.Dropped() != 2 {
		t.Errorf("dropped = %d, want 2", tr.Dropped())
	}
}

func TestWriteChromeTrace(t *testing.T) {
	tr := NewTracer(0)
	clk := new(sim.Clock)
	tr.StartOp(clk, "store_datum", "x", 3)
	clk.Advance(2 * time.Microsecond)
	tr.DeviceEvent(clk, pmem.TraceEvent{Point: 0, Off: 128, Bytes: 64})
	tr.EndOp(clk, nil)

	var b strings.Builder
	if err := WriteChromeTrace(&b, tr.Spans()); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal([]byte(b.String()), &events); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v\n%s", err, b.String())
	}
	if len(events) != 2 {
		t.Fatalf("got %d events, want op slice + persist instant", len(events))
	}
	if events[0]["ph"] != "X" || events[0]["name"] != "store_datum(x)" || events[0]["tid"] != float64(3) {
		t.Errorf("op slice = %v", events[0])
	}
	if events[1]["ph"] != "i" || events[1]["cat"] != "persist" {
		t.Errorf("instant event = %v", events[1])
	}

	var jb strings.Builder
	if err := WriteTraceJSON(&jb, tr.Spans()); err != nil {
		t.Fatal(err)
	}
	var spans []Span
	if err := json.Unmarshal([]byte(jb.String()), &spans); err != nil {
		t.Fatalf("span JSON invalid: %v", err)
	}
	if len(spans) != 1 || spans[0].Op != "store_datum" {
		t.Errorf("span JSON round trip = %+v", spans)
	}
}
