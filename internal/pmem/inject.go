package pmem

// Deterministic fault injection. Every Persist and Fence in the stack names a
// registered persist point, so a failure site is identified by a stable name
// ("pmdk.tx.commit.data") rather than a brittle global counter. On top of the
// named points the device offers three injection primitives, all driven by
// the ordinal of persist operations executed since arming:
//
//   - crash at the k-th upcoming persist (ArmCrashAtOp), optionally tearing
//     the in-flight store at cacheline granularity: a deterministic subset of
//     the covered lines reaches the media before power dies;
//   - transient media errors at the k-th upcoming persist (InjectTransient),
//     which exercise the device's bounded retry/backoff path — recoverable
//     below persistMaxRetries, a hard ErrMedia beyond it;
//   - a trace recorder (StartTrace/StopTrace) that captures the exact
//     sequence of persist/fence events a workload executes, which is what
//     the crash-point explorer in internal/core enumerates.
//
// Injection ordinals count persist operations only. Fences are traced but not
// injectable: Fence cannot report an error (the SFENCE analogue has no
// failure path in the programming model), and a crash at a fence is
// state-equivalent to a crash at the next persist — the fence neither flushes
// lines nor drops pre-images.

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"pmemcpy/internal/sim"
)

// ErrMedia is returned by Persist when injected transient media errors outlast
// the device's bounded retry budget. Unlike ErrFailed it is not sticky: the
// device stays alive and the caller may retry or abort the enclosing
// transaction.
var ErrMedia = errors.New("pmem: uncorrectable media error")

// persistMaxRetries bounds the device-internal retry loop on a transient
// persist failure. The value mirrors the "retry a handful of times, then
// surface the error" policy of real PMEM drivers: each retry backs off
// exponentially (charged to the caller's virtual clock), and the fourth
// consecutive failure of one flush escalates to ErrMedia.
const persistMaxRetries = 3

// PointID names an instrumented persist point. IDs are process-local and
// assigned in registration order; the stable identifier is the registered
// name, which golden files and coverage maps use.
type PointID uint32

var pointRegistry = struct {
	sync.RWMutex
	names  []string
	byName map[string]PointID
}{
	names:  []string{"pmem.unnamed"},
	byName: map[string]PointID{"pmem.unnamed": 0},
}

// RegisterPoint interns a persist-point name and returns its ID. Registering
// the same name twice returns the same ID, so independent packages may share
// a point. Typically called from package-level var initializers.
func RegisterPoint(name string) PointID {
	pointRegistry.Lock()
	defer pointRegistry.Unlock()
	if id, ok := pointRegistry.byName[name]; ok {
		return id
	}
	id := PointID(len(pointRegistry.names))
	pointRegistry.names = append(pointRegistry.names, name)
	pointRegistry.byName[name] = id
	return id
}

// PointName returns the registered name of id, or a placeholder for an
// unknown ID.
func PointName(id PointID) string {
	pointRegistry.RLock()
	defer pointRegistry.RUnlock()
	if int(id) < len(pointRegistry.names) {
		return pointRegistry.names[id]
	}
	return fmt.Sprintf("pmem.point(%d)", uint32(id))
}

// String implements fmt.Stringer.
func (id PointID) String() string { return PointName(id) }

// EventKind distinguishes trace events.
type EventKind uint8

const (
	// EventPersist is a CLWB+SFENCE of a byte range (injectable).
	EventPersist EventKind = iota
	// EventFence is a bare SFENCE (traced, not injectable).
	EventFence
)

// String implements fmt.Stringer.
func (k EventKind) String() string {
	if k == EventFence {
		return "fence"
	}
	return "persist"
}

// TraceEvent is one recorded persist or fence.
type TraceEvent struct {
	Kind  EventKind
	Point PointID
	// Op is the persist-op ordinal (0-based, counted from StartTrace) for
	// EventPersist events and -1 for fences. ArmCrashAtOp(ev.Op, ...) on a
	// fresh device replaying the same workload crashes exactly at this event.
	Op    int64
	Off   int64
	Bytes int64
}

// injector holds the device's fault-injection state. The zero value is
// disarmed. The active flag is the fast-path gate: persists and fences touch
// the mutex only while some injection mode is engaged, so experiment and
// benchmark runs pay one atomic load per persist.
type injector struct {
	active atomic.Bool

	mu        sync.Mutex
	ops       int64 // persist ops observed while active
	crashOp   int64 // absolute op ordinal to crash at; < 0 means disarmed
	tearSeed  uint64
	transient map[int64]int // op ordinal -> consecutive transient failures
	tracing   bool
	trace     []TraceEvent

	retries       atomic.Int64
	mediaFailures atomic.Int64
}

func (in *injector) recompute() {
	in.active.Store(in.tracing || in.crashOp >= 0 || len(in.transient) > 0)
}

// ArmCrashAtOp arms a crash at the k-th upcoming persist operation (k = 0
// fails the very next one). If tearSeed is nonzero and crash tracking is
// enabled, the armed persist is torn: a deterministic, seed-dependent subset
// of its cachelines is persisted before the device dies, modelling a flush
// interrupted mid-line-sequence. Arming clears a previously fired failure.
func (d *Device) ArmCrashAtOp(k int64, tearSeed uint64) {
	if k < 0 {
		panic(fmt.Sprintf("pmem: ArmCrashAtOp ordinal must be >= 0, got %d", k))
	}
	in := &d.fault.inj
	in.mu.Lock()
	in.crashOp = in.ops + k
	in.tearSeed = tearSeed
	in.recompute()
	in.mu.Unlock()
	d.fault.failed.Store(false)
}

// InjectTransient schedules count consecutive transient media errors at the
// k-th upcoming persist operation. count <= persistMaxRetries is absorbed by
// the device's retry/backoff path (the persist succeeds, slower); a larger
// count makes that persist return ErrMedia.
func (d *Device) InjectTransient(k int64, count int) {
	if k < 0 || count <= 0 {
		panic(fmt.Sprintf("pmem: InjectTransient(%d, %d) out of range", k, count))
	}
	in := &d.fault.inj
	in.mu.Lock()
	if in.transient == nil {
		in.transient = make(map[int64]int)
	}
	in.transient[in.ops+k] = count
	in.recompute()
	in.mu.Unlock()
}

// DisarmInjection clears any armed crash and pending transient errors and
// stops tracing. A fired failure is cleared too.
func (d *Device) DisarmInjection() {
	in := &d.fault.inj
	in.mu.Lock()
	in.crashOp = -1
	in.tearSeed = 0
	in.transient = nil
	in.tracing = false
	in.trace = nil
	in.recompute()
	in.mu.Unlock()
	d.fault.failed.Store(false)
}

// StartTrace begins recording persist/fence events. Persist-op ordinals in
// the resulting trace are counted from this call, matching what a subsequent
// ArmCrashAtOp on a freshly set-up device would see.
func (d *Device) StartTrace() {
	in := &d.fault.inj
	in.mu.Lock()
	in.tracing = true
	in.trace = nil
	in.ops = 0
	in.crashOp = -1
	in.recompute()
	in.mu.Unlock()
}

// StopTrace ends recording and returns the captured events.
func (d *Device) StopTrace() []TraceEvent {
	in := &d.fault.inj
	in.mu.Lock()
	ev := in.trace
	in.trace = nil
	in.tracing = false
	in.recompute()
	in.mu.Unlock()
	return ev
}

// PersistRetries returns the total number of transient persist failures the
// retry/backoff path absorbed.
func (d *Device) PersistRetries() int64 { return d.fault.inj.retries.Load() }

// MediaFailures returns the number of persists that escalated to ErrMedia.
func (d *Device) MediaFailures() int64 { return d.fault.inj.mediaFailures.Load() }

// injectPersist runs the injection state machine for one persist operation.
// It returns a non-nil error when the op must fail (armed crash or
// uncorrectable media error); transient failures below the retry bound only
// charge backoff time. Called with no device locks held.
func (d *Device) injectPersist(clk *sim.Clock, off, n int64, pt PointID) error {
	in := &d.fault.inj
	in.mu.Lock()
	op := in.ops
	in.ops++
	if in.tracing {
		in.trace = append(in.trace, TraceEvent{
			Kind: EventPersist, Point: pt, Op: op, Off: off, Bytes: n,
		})
	}
	crash := in.crashOp >= 0 && op == in.crashOp
	tearSeed := in.tearSeed
	failures := 0
	if !crash {
		if f, ok := in.transient[op]; ok {
			failures = f
			delete(in.transient, op)
		}
	}
	in.mu.Unlock()

	if crash {
		if tearSeed != 0 && d.tracking && n > 0 {
			d.tearRange(off, n, tearSeed)
		}
		d.fault.failed.Store(true)
		return fmt.Errorf("persist %d at %s: %w", op, PointName(pt), ErrFailed)
	}
	for attempt := 1; attempt <= failures; attempt++ {
		if attempt > persistMaxRetries {
			in.mediaFailures.Add(1)
			return fmt.Errorf("pmem: persist [%d,%d) at %s failed after %d retries: %w",
				off, off+n, PointName(pt), persistMaxRetries, ErrMedia)
		}
		in.retries.Add(1)
		d.machine.ChargeRetry(clk, attempt)
	}
	return nil
}

// tearRange persists a deterministic pseudo-random subset of the cachelines
// covering [off, off+n) — their pre-images are dropped, so the upcoming Crash
// keeps the new contents of exactly those lines. With a fixed seed the torn
// subset is reproducible across runs.
func (d *Device) tearRange(off, n int64, seed uint64) {
	lo, hi := lineRange(off, n)
	d.mu.Lock()
	defer d.mu.Unlock()
	for l := lo; l < hi; l++ {
		if splitmix64(seed^uint64(l))&1 == 1 {
			delete(d.preimage, l)
		}
	}
}

// splitmix64 is the finalizer of the SplitMix64 generator — a cheap, well
// mixed hash used to pick torn cachelines deterministically.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
