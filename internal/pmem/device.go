// Package pmem emulates a byte-addressable persistent memory device, following
// the methodology the paper itself uses (DRAM-backed emulation with injected
// latency and bandwidth constraints: 300 ns read / 125 ns write latency,
// 30 GB/s read / 8 GB/s write bandwidth).
//
// The device exposes two access paths mirroring the paper's distinction:
//
//   - the kernel path (ReadAt/WriteAt), used by the POSIX filesystem layer,
//     which copies data and charges syscall-free device costs internally; and
//   - the DAX path (Slice + ChargeRead/ChargeWrite + Persist), which gives
//     callers zero-copy mapped access; the caller moves bytes itself and
//     charges the movement once, which is exactly how pMEMCPY serializes
//     directly into PMEM without a DRAM staging copy.
//
// For crash-consistency testing the device can track unpersisted cachelines
// with their pre-images; Crash rolls back an adversarial subset of them,
// emulating the loss of CPU-cache-resident stores that never reached the
// persistence domain.
package pmem

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"

	"pmemcpy/internal/sim"
)

// ErrOutOfRange is returned when an access falls outside the device.
var ErrOutOfRange = errors.New("pmem: access out of device range")

// ErrFailed is returned by every operation after an injected failure fired;
// see ArmCrashAtOp. It models the device becoming unreachable at the
// instant of a power failure, forcing the software stack to unwind exactly
// where the crash hit.
var ErrFailed = errors.New("pmem: device failed (injected fault)")

// Device is an emulated PMEM device. All methods are safe for concurrent use
// by multiple ranks as long as the ranks access disjoint byte ranges, which is
// the discipline every client in this repository follows (overlapping
// metadata is protected by locks in the pmdk layer).
type Device struct {
	machine *sim.Machine
	data    []byte

	// readPort and writePort are the bandwidth pools this device's traffic is
	// charged against. They default to the machine's built-in PMEM ports; a
	// device of a multi-pool node gets its own dedicated pair
	// (WithDedicatedPorts), which is what lets aggregate bandwidth scale with
	// the pool count.
	readPort  *sim.Pool
	writePort *sim.Pool

	tracking bool
	mu       sync.Mutex
	preimage map[int64][]byte // line index -> pre-image of first unpersisted write

	// fault is the injection/failure state. Devices constructed with
	// WithFaultDomain share one state, so a multi-pool node has a single
	// persist-op ordinal space, one armed crash, and one failure switch.
	fault *faultState

	ctr  counters
	sink atomic.Pointer[sinkHolder]
}

// faultState bundles the failure flag and the injector of one fault domain
// (by default: one device; for multi-pool nodes: all pools).
type faultState struct {
	failed atomic.Bool
	inj    injector
}

// Counters is a snapshot of the device's always-on operation counters. They
// are plain atomics updated on every charge/persist/fence, so reading them
// never perturbs virtual time and keeping them costs one uncontended atomic
// add per operation whether or not observability is enabled.
type Counters struct {
	Persists       int64 // successful Persist calls
	Fences         int64 // Fence calls
	PersistedBytes int64 // bytes covered by successful persists
	Reads          int64 // charged read accesses (ChargeRead calls): one device read latency each
	ReadBytes      int64 // bytes charged through ChargeRead (DAX + kernel path)
	WrittenBytes   int64 // bytes charged through ChargeWrite (DAX + kernel path)
}

type counters struct {
	persists       atomic.Int64
	fences         atomic.Int64
	persistedBytes atomic.Int64
	reads          atomic.Int64
	readBytes      atomic.Int64
	writtenBytes   atomic.Int64
}

// Counters returns the current device counter values.
func (d *Device) Counters() Counters {
	return Counters{
		Persists:       d.ctr.persists.Load(),
		Fences:         d.ctr.fences.Load(),
		PersistedBytes: d.ctr.persistedBytes.Load(),
		Reads:          d.ctr.reads.Load(),
		ReadBytes:      d.ctr.readBytes.Load(),
		WrittenBytes:   d.ctr.writtenBytes.Load(),
	}
}

// EventSink receives every successful persist and fence the device executes,
// tagged with the virtual clock it was charged to. The obs tracer implements
// it to attribute persist points to the API op active on that clock. Sink
// methods run on the caller's goroutine with no device locks held; they must
// not call back into the device and must not advance clk.
type EventSink interface {
	DeviceEvent(clk *sim.Clock, ev TraceEvent)
}

// sinkHolder wraps the sink interface so it can sit behind one atomic pointer
// (the disabled fast path is a single pointer load).
type sinkHolder struct{ s EventSink }

// SetEventSink installs s as the device's event sink, replacing any other.
func (d *Device) SetEventSink(s EventSink) { d.sink.Store(&sinkHolder{s: s}) }

// ClearEventSink removes s if it is still the installed sink; a sink another
// owner has installed since is left alone.
func (d *Device) ClearEventSink(s EventSink) {
	if h := d.sink.Load(); h != nil && h.s == s {
		d.sink.CompareAndSwap(h, nil)
	}
}

// Option configures a Device.
type Option func(*Device)

// WithCrashTracking enables cacheline pre-image tracking so Crash can roll
// back unpersisted stores. Tracking costs memory proportional to the dirty
// set, so experiments leave it off and crash tests turn it on.
func WithCrashTracking() Option {
	return func(d *Device) { d.tracking = true }
}

// WithDedicatedPorts gives the device its own read/write bandwidth port pair
// (minted from the machine's config and covered by SetConcurrency) instead of
// the machine's shared default ports. Every device of a multi-pool node uses
// one, modelling one DIMM set per pool.
func WithDedicatedPorts(name string) Option {
	return func(d *Device) { d.readPort, d.writePort = d.machine.NewPMEMPorts(name) }
}

// WithFaultDomain places the device in primary's fault domain: injected
// failures, armed crashes, trace recording, and persist-op ordinals are shared
// across every device of the domain. The crash-point explorer relies on this
// to enumerate one global persist sequence over a multi-pool namespace.
func WithFaultDomain(primary *Device) Option {
	return func(d *Device) { d.fault = primary.fault }
}

// New creates a device of the given size backed by host DRAM.
func New(m *sim.Machine, size int64, opts ...Option) *Device {
	if size <= 0 {
		panic(fmt.Sprintf("pmem: device size must be positive, got %d", size))
	}
	d := &Device{
		machine:   m,
		data:      make([]byte, size),
		preimage:  make(map[int64][]byte),
		readPort:  m.PMEMRead,
		writePort: m.PMEMWrite,
		fault:     new(faultState),
	}
	d.fault.inj.crashOp = -1
	for _, o := range opts {
		o(d)
	}
	return d
}

// Failed reports whether injected failure has fired.
func (d *Device) Failed() bool { return d.fault.failed.Load() }

func (d *Device) checkAlive() error {
	if d.fault.failed.Load() {
		return ErrFailed
	}
	return nil
}

// Size returns the device capacity in bytes.
func (d *Device) Size() int64 { return int64(len(d.data)) }

// Machine returns the machine model this device charges costs against.
func (d *Device) Machine() *sim.Machine { return d.machine }

// ReadPort returns the bandwidth pool this device's reads are charged against.
func (d *Device) ReadPort() *sim.Pool { return d.readPort }

// WritePort returns the bandwidth pool this device's writes are charged
// against.
func (d *Device) WritePort() *sim.Pool { return d.writePort }

func (d *Device) check(off, n int64) error {
	if err := d.checkAlive(); err != nil {
		return err
	}
	if off < 0 || n < 0 || off+n > int64(len(d.data)) {
		return fmt.Errorf("%w: [%d,%d) of %d", ErrOutOfRange, off, off+n, len(d.data))
	}
	return nil
}

// Slice returns the live device bytes in [off, off+n). This is the DAX
// mapping: no copy happens and no cost is charged. Writers must bracket their
// stores with CaptureRange (before) and Persist (after) for crash tracking,
// and charge the movement with ChargeWrite.
func (d *Device) Slice(off, n int64) ([]byte, error) {
	if err := d.check(off, n); err != nil {
		return nil, err
	}
	return d.data[off : off+n : off+n], nil
}

// lineRange returns the first and one-past-last cacheline indices covering
// [off, off+n).
func lineRange(off, n int64) (int64, int64) {
	if n <= 0 {
		return 0, 0
	}
	return off / sim.CachelineSize, (off + n + sim.CachelineSize - 1) / sim.CachelineSize
}

// CaptureRange records pre-images of every cacheline in [off, off+n) that is
// not already dirty. It is a no-op when crash tracking is disabled.
func (d *Device) CaptureRange(off, n int64) error {
	if err := d.check(off, n); err != nil {
		return err
	}
	if !d.tracking || n == 0 {
		return nil
	}
	lo, hi := lineRange(off, n)
	d.mu.Lock()
	defer d.mu.Unlock()
	for l := lo; l < hi; l++ {
		if _, ok := d.preimage[l]; ok {
			continue
		}
		start := l * sim.CachelineSize
		end := start + sim.CachelineSize
		if end > int64(len(d.data)) {
			end = int64(len(d.data))
		}
		img := make([]byte, end-start)
		copy(img, d.data[start:end])
		d.preimage[l] = img
	}
	return nil
}

// ChargeRead charges clk for loading n bytes from the device through the DAX
// path — sim's DAX move out of this device's read port, one stream, no codec —
// and counts the access (Reads: one read latency, whatever n) and its bytes. When mapSync is true the per-cacheline page-fault
// synchronization penalty of a MAP_SYNC mapping is added — the paper's
// PMCPY-B reads perform no better than ADIOS for exactly this reason.
func (d *Device) ChargeRead(clk *sim.Clock, n int64, mapSync bool) {
	if n <= 0 {
		return
	}
	d.ctr.reads.Add(1)
	d.ctr.readBytes.Add(n)
	// One stripe, not CPU-limited, one rank's one worker, one pass.
	d.machine.ChargeMove(clk, sim.Load, []sim.Stripe{{Port: d.readPort, Bytes: n}}, 0, 1, 1, 1, mapSync)
}

// ChargeWrite charges clk for storing n bytes through the DAX path, and counts
// them. When mapSync is true the per-cacheline write-through penalty of a
// MAP_SYNC mapping is added, which is the paper's PMCPY-B configuration.
func (d *Device) ChargeWrite(clk *sim.Clock, n int64, mapSync bool) {
	if n <= 0 {
		return
	}
	d.ctr.writtenBytes.Add(n)
	d.machine.ChargeMove(clk, sim.Store, []sim.Stripe{{Port: d.writePort, Bytes: n}}, 0, 1, 1, 1, mapSync)
}

// ReadAt implements the kernel read path: it copies device bytes into p and
// charges the device read cost. Filesystem layers add their own syscall and
// page-cache costs on top.
func (d *Device) ReadAt(clk *sim.Clock, p []byte, off int64) (int, error) {
	if err := d.check(off, int64(len(p))); err != nil {
		return 0, err
	}
	n := copy(p, d.data[off:])
	d.ChargeRead(clk, int64(n), false)
	return n, nil
}

// WriteAt implements the kernel write path: it captures pre-images, copies p
// into the device, and charges the device write cost. The write is left
// unpersisted until Persist is called (the kernel path's fsync analogue).
func (d *Device) WriteAt(clk *sim.Clock, p []byte, off int64) (int, error) {
	if err := d.check(off, int64(len(p))); err != nil {
		return 0, err
	}
	if err := d.CaptureRange(off, int64(len(p))); err != nil {
		return 0, err
	}
	n := copy(d.data[off:], p)
	d.ChargeWrite(clk, int64(n), false)
	return n, nil
}

// Persist makes [off, off+n) durable: it charges the flush cost (one write
// latency per fence) and drops the pre-images of the covered cachelines so a
// subsequent Crash will not roll them back. It models CLWB of the covered
// lines followed by an SFENCE. pt names the persist point for tracing and
// fault injection; an armed crash or an uncorrectable injected media error
// fails the operation before any line is persisted (a torn crash persists a
// seed-chosen subset first — see ArmCrashAtOp).
func (d *Device) Persist(clk *sim.Clock, off, n int64, pt PointID) error {
	if err := d.check(off, n); err != nil {
		return err
	}
	if d.fault.inj.active.Load() {
		if err := d.injectPersist(clk, off, n, pt); err != nil {
			return err
		}
	}
	d.machine.ChargePersist(clk)
	d.ctr.persists.Add(1)
	d.ctr.persistedBytes.Add(n)
	if h := d.sink.Load(); h != nil {
		h.s.DeviceEvent(clk, TraceEvent{Kind: EventPersist, Point: pt, Op: -1, Off: off, Bytes: n})
	}
	if !d.tracking || n == 0 {
		return nil
	}
	lo, hi := lineRange(off, n)
	d.mu.Lock()
	defer d.mu.Unlock()
	for l := lo; l < hi; l++ {
		delete(d.preimage, l)
	}
	return nil
}

// Fence charges a store fence without persisting any particular range. Fences
// carry a point ID and appear in traces, but are not injectable: a crash at a
// fence is state-equivalent to a crash at the next persist.
func (d *Device) Fence(clk *sim.Clock, pt PointID) {
	if d.fault.inj.active.Load() {
		in := &d.fault.inj
		in.mu.Lock()
		if in.tracing {
			in.trace = append(in.trace, TraceEvent{Kind: EventFence, Point: pt, Op: -1})
		}
		in.mu.Unlock()
	}
	d.machine.ChargeFence(clk)
	d.ctr.fences.Add(1)
	if h := d.sink.Load(); h != nil {
		h.s.DeviceEvent(clk, TraceEvent{Kind: EventFence, Point: pt, Op: -1})
	}
}

// DirtyLines returns the number of cachelines with unpersisted writes. It is
// only meaningful when crash tracking is enabled.
func (d *Device) DirtyLines() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.preimage)
}

// CrashMode selects the adversary used by Crash.
type CrashMode int

const (
	// CrashLoseAll rolls back every unpersisted cacheline: nothing that was
	// not explicitly persisted survives. This is the strongest adversary for
	// code that forgot a flush.
	CrashLoseAll CrashMode = iota
	// CrashKeepAll keeps every unpersisted cacheline, as if the CPU cache
	// happened to be written back in full before power loss.
	CrashKeepAll
	// CrashRandom keeps or rolls back each unpersisted cacheline
	// independently at random, emulating arbitrary cache eviction order.
	CrashRandom
)

// Crash simulates a power failure: depending on mode, unpersisted cachelines
// are rolled back to their pre-images. rng is only used by CrashRandom and
// may be nil otherwise. After Crash the device content is what recovery code
// would find at next startup; tracking state is reset.
func (d *Device) Crash(mode CrashMode, rng *rand.Rand) {
	if !d.tracking {
		panic("pmem: Crash requires WithCrashTracking")
	}
	if mode == CrashRandom && rng == nil {
		panic("pmem: CrashRandom requires a rand source")
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	// Dirty lines are visited in ascending order, so which of them CrashRandom
	// keeps is a function of the seed, not of map iteration order.
	lines := make([]int64, 0, len(d.preimage))
	for l := range d.preimage {
		lines = append(lines, l)
	}
	slices.Sort(lines)
	for _, l := range lines {
		keep := false
		switch mode {
		case CrashKeepAll:
			keep = true
		case CrashRandom:
			keep = rng.Intn(2) == 0
		}
		if !keep {
			copy(d.data[l*sim.CachelineSize:], d.preimage[l])
		}
	}
	d.preimage = make(map[int64][]byte)
	// Power is restored after the crash: disarm injection so recovery code
	// can run against the surviving state.
	d.DisarmInjection()
}
