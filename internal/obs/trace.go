package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"pmemcpy/internal/pmem"
	"pmemcpy/internal/sim"
)

// Span-style op tracing. A Span covers one library API call (StoreBlock,
// LoadDatum, Delete, ...) in virtual time; the persist events the call
// triggers — the device's persist-point TraceEvent stream — nest under it as
// PointEvents, so a trace answers "which flush belongs to which store".
//
// Attribution works without goroutine-local state because of the engines'
// determinism rule: every Persist is issued by the coordinator goroutine of
// exactly one rank, and every rank owns one virtual clock. The tracer
// therefore keys its active-span table by *sim.Clock — the clock an event is
// charged to identifies the op that caused it. Worker goroutines never
// persist, so concurrent ranks interleave safely and shard copies still
// attribute to their coordinator's span.

// PointEvent is one persist nested inside a span.
type PointEvent struct {
	// Point is the registered persist-point name ("pmdk.tx.commit", ...).
	Point string `json:"point"`
	// Off and Bytes describe the flushed range.
	Off   int64 `json:"off,omitempty"`
	Bytes int64 `json:"bytes,omitempty"`
	// AtNS is the virtual time the event completed at.
	AtNS int64 `json:"at_ns"`
}

// Span is one traced API call.
type Span struct {
	// Op is the API operation name ("store_block", "load_datum", ...).
	Op string `json:"op"`
	// ID is the variable id the op addressed (empty for id-less ops).
	ID string `json:"id,omitempty"`
	// Rank is the calling rank.
	Rank int `json:"rank"`
	// StartNS and EndNS bound the op in virtual time.
	StartNS int64 `json:"start_ns"`
	EndNS   int64 `json:"end_ns"`
	// Err is the op's error text when it failed.
	Err string `json:"err,omitempty"`
	// Points are the persist events the op triggered, in order.
	Points []PointEvent `json:"points,omitempty"`
	// Children are nested API calls (a wrapper op that calls another op).
	Children []*Span `json:"children,omitempty"`
}

// Tracer records spans. It implements the pmem event-sink contract
// (DeviceEvent), so a device wired to it feeds every persist point into the
// currently active span of the issuing rank.
type Tracer struct {
	mu     sync.Mutex
	limit  int
	roots  []*Span
	active map[*sim.Clock][]*Span // per-rank span stack

	dropped atomic.Int64
	// orphanPoints counts device events seen outside any active span (pool
	// open/recovery, Munmap); they are counted rather than recorded so traces
	// stay op-shaped.
	orphanPoints atomic.Int64
}

// DefaultTraceLimit bounds recorded root spans so an unbounded workload
// cannot grow the trace without bound; further spans are counted as dropped.
const DefaultTraceLimit = 1 << 14

// NewTracer returns a tracer keeping at most limit root spans
// (limit <= 0 selects DefaultTraceLimit).
func NewTracer(limit int) *Tracer {
	if limit <= 0 {
		limit = DefaultTraceLimit
	}
	return &Tracer{limit: limit, active: make(map[*sim.Clock][]*Span)}
}

// StartOp opens a span for op on the rank owning clk. Ops on the same clock
// nest: a span started while another is active becomes its child.
func (t *Tracer) StartOp(clk *sim.Clock, op, id string, rank int) {
	sp := &Span{Op: op, ID: id, Rank: rank, StartNS: int64(clk.Now())}
	t.mu.Lock()
	t.active[clk] = append(t.active[clk], sp)
	t.mu.Unlock()
}

// EndOp closes the innermost span on clk, recording the op's error (if any)
// and attaching the span to its parent or the root list.
func (t *Tracer) EndOp(clk *sim.Clock, err error) {
	end := int64(clk.Now())
	t.mu.Lock()
	defer t.mu.Unlock()
	stack := t.active[clk]
	if len(stack) == 0 {
		return
	}
	sp := stack[len(stack)-1]
	sp.EndNS = end
	if err != nil {
		sp.Err = err.Error()
	}
	if len(stack) == 1 {
		delete(t.active, clk)
		if len(t.roots) >= t.limit {
			t.dropped.Add(1)
			return
		}
		t.roots = append(t.roots, sp)
		return
	}
	t.active[clk] = stack[:len(stack)-1]
	parent := stack[len(stack)-2]
	parent.Children = append(parent.Children, sp)
}

// DeviceEvent feeds one persist into the active span of the rank
// owning clk. It satisfies the pmem.EventSink contract.
func (t *Tracer) DeviceEvent(clk *sim.Clock, ev pmem.TraceEvent) {
	at := int64(clk.Now())
	t.mu.Lock()
	stack := t.active[clk]
	if len(stack) == 0 {
		t.mu.Unlock()
		t.orphanPoints.Add(1)
		return
	}
	sp := stack[len(stack)-1]
	sp.Points = append(sp.Points, PointEvent{
		Point: pmem.PointName(ev.Point),
		Off:   ev.Off,
		Bytes: ev.Bytes,
		AtNS:  at,
	})
	t.mu.Unlock()
}

// Dropped returns the number of root spans discarded over the limit.
func (t *Tracer) Dropped() int64 { return t.dropped.Load() }

// OrphanPoints returns the number of device events seen outside any op.
func (t *Tracer) OrphanPoints() int64 { return t.orphanPoints.Load() }

// Spans returns a deep copy of the completed root spans in completion order.
func (t *Tracer) Spans() []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Span, 0, len(t.roots))
	for _, sp := range t.roots {
		out = append(out, *copySpan(sp))
	}
	return out
}

func copySpan(sp *Span) *Span {
	c := *sp
	c.Points = append([]PointEvent(nil), sp.Points...)
	c.Children = nil
	for _, ch := range sp.Children {
		c.Children = append(c.Children, copySpan(ch))
	}
	return &c
}

// WriteTraceJSON dumps spans as an indented JSON array.
func WriteTraceJSON(w io.Writer, spans []Span) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(spans)
}

// chromeEvent is one entry of the chrome://tracing "trace event" JSON array.
type chromeEvent struct {
	Name  string         `json:"name"`
	Cat   string         `json:"cat"`
	Phase string         `json:"ph"`
	TS    float64        `json:"ts"` // microseconds
	Dur   float64        `json:"dur,omitempty"`
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	Scope string         `json:"s,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

// WriteChromeTrace dumps spans in the chrome://tracing (about:tracing,
// Perfetto) trace-event format: ops as complete ("X") slices on one track
// per rank, persist points as instant events nested inside them. Timestamps
// are virtual microseconds.
func WriteChromeTrace(w io.Writer, spans []Span) error {
	var events []chromeEvent
	var emit func(sp *Span)
	emit = func(sp *Span) {
		name := sp.Op
		if sp.ID != "" {
			name = sp.Op + "(" + sp.ID + ")"
		}
		args := map[string]any{}
		if sp.Err != "" {
			args["err"] = sp.Err
		}
		events = append(events, chromeEvent{
			Name: name, Cat: "op", Phase: "X",
			TS: float64(sp.StartNS) / 1e3, Dur: float64(sp.EndNS-sp.StartNS) / 1e3,
			PID: 0, TID: sp.Rank, Args: args,
		})
		for _, pt := range sp.Points {
			events = append(events, chromeEvent{
				Name: pt.Point, Cat: "persist", Phase: "i",
				TS: float64(pt.AtNS) / 1e3, PID: 0, TID: sp.Rank, Scope: "t",
				Args: map[string]any{"bytes": pt.Bytes, "off": fmt.Sprintf("%#x", pt.Off)},
			})
		}
		for _, ch := range sp.Children {
			emit(ch)
		}
	}
	for i := range spans {
		emit(&spans[i])
	}
	enc := json.NewEncoder(w)
	return enc.Encode(events)
}
