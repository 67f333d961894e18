// Package obs is the repository's observability layer: counters, gauges and
// power-of-two latency histograms over virtual time, plus span-style op
// tracing built on the persist-point TraceEvent stream of internal/pmem.
//
// The package is deliberately dependency-free (standard library plus sibling
// internal packages only — `make obsdeps` enforces it) and designed so that
// instrumentation compiled into hot paths costs nearly nothing when
// observability is off: every metric is a plain atomic counter, histograms
// and tracing sit behind an enabled check at the call site, and nothing here
// ever touches the virtual clock — observing a store can never change its
// modelled latency.
//
// Three export surfaces are built from the same Registry:
//
//   - Snapshot: a stable, JSON-marshalable struct (PMEM.Metrics(), pinned by
//     a golden-file test);
//   - Prometheus-style text exposition (Snapshot.WriteProm, used by
//     `pmembench -metrics` and `pmemcli stats`);
//   - trace dumps in span JSON or chrome://tracing format (trace.go).
package obs

import (
	"fmt"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
)

// Label is one name=value pair attached to a metric. Labels distinguish
// series of the same name (op="store_block", path="parallel").
type Label struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n (negative deltas are ignored: counters are
// monotone by contract).
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Load returns the current value.
func (c *Counter) Load() int64 { return c.v.Load() }

// HistogramBuckets is the number of power-of-two buckets a histogram carries:
// bucket i counts observations v with 2^(i-1) <= v < 2^i (bucket 0 holds
// v <= 0). 64 buckets cover every int64, so no observation is ever clipped.
const HistogramBuckets = 64

// Histogram is a fixed-bucket power-of-two histogram. Buckets are atomic, so
// concurrent Observe calls never contend on a lock; the trade against a
// mutex-protected variable-bucket design is deliberate — per-op latency
// recording sits on every store and load.
type Histogram struct {
	count   atomic.Int64
	sum     atomic.Int64
	buckets [HistogramBuckets]atomic.Int64
}

// bucketIndex returns the bucket covering v: 0 for v <= 0, else
// floor(log2(v)) + 1, i.e. the number of significant bits.
func bucketIndex(v int64) int {
	if v <= 0 {
		return 0
	}
	i := bits.Len64(uint64(v))
	if i >= HistogramBuckets {
		i = HistogramBuckets - 1
	}
	return i
}

// BucketBound returns the exclusive upper bound of bucket i (observations in
// bucket i are < BucketBound(i)), with the last bucket unbounded.
func BucketBound(i int) int64 {
	if i <= 0 {
		return 1
	}
	if i >= HistogramBuckets-1 {
		return int64(1)<<62 - 1 + int64(1)<<62 // MaxInt64
	}
	return int64(1) << uint(i)
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	h.count.Add(1)
	h.sum.Add(v)
	h.buckets[bucketIndex(v)].Add(1)
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() int64 { return h.sum.Load() }

// metricKind discriminates registry entries.
type metricKind uint8

const (
	kindCounter metricKind = iota
	kindHistogram
	kindCounterFunc
	kindGaugeFunc
)

// metric is one registered series.
type metric struct {
	kind   metricKind
	name   string
	help   string
	labels []Label
	ctr    *Counter
	hist   *Histogram
	fn     func() int64
}

// Registry holds a set of named metrics. Registration takes the registry
// lock; the returned metric handles are lock-free. Registering the same
// (name, labels) twice returns the original instrument, so independent code
// paths may share a series.
type Registry struct {
	mu      sync.Mutex
	metrics []*metric
	index   map[string]*metric
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{index: make(map[string]*metric)}
}

// seriesKey builds the dedup key for (name, labels).
func seriesKey(name string, labels []Label) string {
	k := name
	for _, l := range labels {
		k += "\x00" + l.Key + "\x01" + l.Value
	}
	return k
}

func (r *Registry) register(m *metric) *metric {
	r.mu.Lock()
	defer r.mu.Unlock()
	key := seriesKey(m.name, m.labels)
	if prev, ok := r.index[key]; ok {
		return prev
	}
	r.index[key] = m
	r.metrics = append(r.metrics, m)
	return m
}

// Counter registers (or returns the existing) counter series.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	m := r.register(&metric{kind: kindCounter, name: name, help: help, labels: labels, ctr: new(Counter)})
	return m.ctr
}

// Histogram registers (or returns the existing) histogram series.
func (r *Registry) Histogram(name, help string, labels ...Label) *Histogram {
	m := r.register(&metric{kind: kindHistogram, name: name, help: help, labels: labels, hist: new(Histogram)})
	return m.hist
}

// CounterFunc registers a counter series whose value is read from fn at
// snapshot time — the bridge for counters that already live elsewhere
// (allocator stats, device persist counts) without double-counting.
func (r *Registry) CounterFunc(name, help string, fn func() int64, labels ...Label) {
	r.register(&metric{kind: kindCounterFunc, name: name, help: help, labels: labels, fn: fn})
}

// GaugeFunc registers a gauge series computed by fn at snapshot time.
func (r *Registry) GaugeFunc(name, help string, fn func() int64, labels ...Label) {
	r.register(&metric{kind: kindGaugeFunc, name: name, help: help, labels: labels, fn: fn})
}

// MetricValue is one series in a Snapshot. Exactly one of Value (counters,
// gauges) or the histogram fields is meaningful, per Kind.
type MetricValue struct {
	Name   string  `json:"name"`
	Kind   string  `json:"kind"` // "counter" | "gauge" | "histogram"
	Help   string  `json:"help,omitempty"`
	Labels []Label `json:"labels,omitempty"`
	Value  int64   `json:"value,omitempty"`
	// Histogram fields: Count/Sum plus the non-empty buckets.
	Count   int64            `json:"count,omitempty"`
	Sum     int64            `json:"sum,omitempty"`
	Buckets []HistogramSlice `json:"buckets,omitempty"`
}

// HistogramSlice is one non-empty histogram bucket: Count observations below
// the exclusive upper bound Le (power of two).
type HistogramSlice struct {
	Le    int64 `json:"le"`
	Count int64 `json:"count"`
}

// Snapshot is a point-in-time copy of every registered series, in a stable
// order (registration order, then name/labels). It is the schema the
// golden-file test pins and the input to the Prometheus exposition writer.
type Snapshot struct {
	Metrics []MetricValue `json:"metrics"`
}

// Snapshot captures every series. Values of different series are read at
// slightly different instants; within the repository's bulk-synchronous
// usage (snapshot after Munmap or between phases) this is exact.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	metrics := append([]*metric(nil), r.metrics...)
	r.mu.Unlock()
	s := Snapshot{Metrics: make([]MetricValue, 0, len(metrics))}
	for _, m := range metrics {
		mv := MetricValue{Name: m.name, Help: m.help, Labels: m.labels}
		switch m.kind {
		case kindCounter:
			mv.Kind = "counter"
			mv.Value = m.ctr.Load()
		case kindCounterFunc:
			mv.Kind = "counter"
			mv.Value = m.fn()
		case kindGaugeFunc:
			mv.Kind = "gauge"
			mv.Value = m.fn()
		case kindHistogram:
			mv.Kind = "histogram"
			mv.Count = m.hist.count.Load()
			mv.Sum = m.hist.sum.Load()
			for i := 0; i < HistogramBuckets; i++ {
				if c := m.hist.buckets[i].Load(); c > 0 {
					mv.Buckets = append(mv.Buckets, HistogramSlice{Le: BucketBound(i), Count: c})
				}
			}
		}
		s.Metrics = append(s.Metrics, mv)
	}
	sort.SliceStable(s.Metrics, func(i, j int) bool {
		if s.Metrics[i].Name != s.Metrics[j].Name {
			return s.Metrics[i].Name < s.Metrics[j].Name
		}
		return labelString(s.Metrics[i].Labels) < labelString(s.Metrics[j].Labels)
	})
	return s
}

// Get returns the snapshot value of the named series, summed across label
// sets (histograms contribute their Count). Convenience for tests and tools.
func (s Snapshot) Get(name string) int64 {
	var total int64
	for _, m := range s.Metrics {
		if m.Name != name {
			continue
		}
		if m.Kind == "histogram" {
			total += m.Count
		} else {
			total += m.Value
		}
	}
	return total
}

// labelString renders labels in prom syntax ({k="v",...}), empty for none.
func labelString(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	out := "{"
	for i, l := range labels {
		if i > 0 {
			out += ","
		}
		out += fmt.Sprintf("%s=%q", l.Key, l.Value)
	}
	return out + "}"
}
