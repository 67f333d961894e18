// Package pmemcpy is a Go reproduction of "pMEMCPY: a simple, lightweight,
// and portable I/O library for storing data in persistent memory"
// (Logan et al., IEEE CLUSTER 2021).
//
// pMEMCPY stores application data structures in node-local persistent memory
// through a key-value interface whose ergonomics approach a plain memcpy:
//
//	n := pmemcpy.NewNode(pmemcpy.DefaultConfig(), 1<<30)
//	pmemcpy.Run(n, nprocs, func(c *pmemcpy.Comm) error {
//		pm, _ := pmemcpy.Mmap(c, n, "/data.pool")
//		count := []uint64{100}
//		off := []uint64{100 * uint64(c.Rank())}
//		pmemcpy.Alloc[float64](pm, "A", 100*uint64(c.Size()))
//		pmemcpy.StoreSub(pm, "A", data, off, count)
//		return pm.Munmap()
//	})
//
// which is the Go rendering of the paper's Figure 3 (16 lines of C++ against
// HDF5's 42).
//
// Under the hood the library maps a pool file from a DAX filesystem on an
// emulated PMEM device, manages it with a PMDK-style transactional allocator,
// keeps metadata in a persistent hashtable (ids gain a "#dims" companion key
// holding array dimensions), and serializes data directly into the mapped
// PMEM with a pluggable codec (BP4 by default) — no DRAM staging copy and no
// network communication, which is where its performance edge over ADIOS,
// NetCDF-4 and pNetCDF comes from. MAP_SYNC semantics can be enabled per
// handle for stronger crash guarantees at a significant latency cost.
//
// Everything runs against a deterministic virtual-time performance model of
// the paper's 24-core testbed (see DESIGN.md), so the repository's benchmarks
// regenerate the paper's figures on any host.
package pmemcpy

import (
	"fmt"
	"math/rand"
	"slices"
	"time"

	"pmemcpy/internal/burstbuffer"
	"pmemcpy/internal/bytesview"
	"pmemcpy/internal/core"
	"pmemcpy/internal/fsck"
	"pmemcpy/internal/mpi"
	"pmemcpy/internal/node"
	"pmemcpy/internal/obs"
	"pmemcpy/internal/pmem"
	"pmemcpy/internal/serial"
	"pmemcpy/internal/sim"
)

// Config is the machine/device performance model configuration.
type Config = sim.Config

// DefaultConfig returns the paper's testbed model: 24 cores, PMEM with
// 300 ns/125 ns read/write latency and 30/8 GB/s read/write bandwidth.
func DefaultConfig() Config { return sim.DefaultConfig() }

// Node is one emulated compute node with local PMEM and a DAX filesystem.
type Node = node.Node

// NodeOption configures NewNode.
type NodeOption func(*nodeOptions)

type nodeOptions struct {
	crashTracking bool
	pools         int
}

// WithCrashTracking enables power-failure simulation on the node's device:
// SimulateCrash can then roll back unpersisted stores, letting applications
// exercise checkpoint/restart and recovery paths.
func WithCrashTracking() NodeOption {
	return func(o *nodeOptions) { o.crashTracking = true }
}

// WithPMEMPools provisions the node with n independent PMEM devices of
// devSize bytes each (n <= 1 keeps the classic single device). A namespace
// mapped on the node spans every device: one member pool each, with ids
// placed by hash and large parallel stores striped across them. All devices
// share one fault domain: SimulateCrash power-cycles them together.
func WithPMEMPools(n int) NodeOption {
	return func(o *nodeOptions) { o.pools = n }
}

// NewNode builds a node whose PMEM device holds devSize bytes.
func NewNode(cfg Config, devSize int64, opts ...NodeOption) *Node {
	var o nodeOptions
	for _, op := range opts {
		op(&o)
	}
	var nopts []node.Option
	if o.crashTracking {
		nopts = append(nopts, node.WithDeviceOptions(pmem.WithCrashTracking()))
	}
	nopts = append(nopts, node.WithPMEMPools(o.pools))
	return node.New(cfg, devSize, nopts...)
}

// CrashMode selects the adversary used by SimulateCrash.
type CrashMode = pmem.CrashMode

// Crash adversaries: lose every unpersisted cacheline, keep them all, or
// keep a random subset (arbitrary cache eviction order).
const (
	CrashLoseAll = pmem.CrashLoseAll
	CrashKeepAll = pmem.CrashKeepAll
	CrashRandom  = pmem.CrashRandom
)

// SimulateCrash power-cycles the node's PMEM devices (all of them, on a
// multi-pool node — they share one fault domain): unpersisted stores are
// rolled back according to mode (rng may be nil except for CrashRandom).
// The node must have been created with WithCrashTracking. Any PMEM handles
// open at crash time are dead; re-Mmap to run recovery.
func SimulateCrash(n *Node, mode CrashMode, rng *rand.Rand) {
	n.CrashAll(mode, rng)
}

// Comm is a communicator handle held by each rank of a parallel run.
type Comm = mpi.Comm

// Run executes fn on ranks parallel ranks (goroutines) against n's machine
// model and returns each rank's final virtual-clock time.
func Run(n *Node, ranks int, fn func(*Comm) error) ([]time.Duration, error) {
	n.Machine.SetConcurrency(ranks)
	return mpi.Run(n.Machine, ranks, fn)
}

// PMEM is the library handle (the paper's pmemcpy::PMEM object).
type PMEM = core.PMEM

// Layout selects the data layout.
type Layout = core.Layout

// Layout values.
const (
	// LayoutHashtable keeps everything in one pool file with a flat
	// persistent-hashtable namespace (the default).
	LayoutHashtable = core.LayoutHashtable
	// LayoutHierarchy maps "/"-separated ids onto directories and files.
	LayoutHierarchy = core.LayoutHierarchy
)

// DimsSuffix is the key suffix under which array dimensions are stored.
const DimsSuffix = core.DimsSuffix

// Error sentinels. Every error returned by the library that stems from one of
// these conditions wraps the sentinel, so callers dispatch with errors.Is
// instead of string matching:
//
//	if errors.Is(err, pmemcpy.ErrNotFound) { ... }
var (
	// ErrNotFound reports that an id (or its stored blocks) does not exist.
	ErrNotFound = core.ErrNotFound
	// ErrTypeMismatch reports that an id holds a different kind or element
	// type of value than the call requested, or that a redeclaration
	// (Alloc) conflicts with the id's existing dims.
	ErrTypeMismatch = core.ErrTypeMismatch
	// ErrOutOfBounds reports a block selection outside the array's declared
	// extent (or a rank mismatch against it).
	ErrOutOfBounds = core.ErrOutOfBounds
	// ErrMedia reports an uncorrectable (injected) media error that outlasted
	// the device's retry/backoff budget.
	ErrMedia = core.ErrMedia
	// ErrCorrupt reports that stored bytes failed their CRC32C check — a
	// verified read, the scrubber, or a deep check found the medium returned
	// different bytes than were persisted — or that the block being read was
	// quarantined by the scrubber. The error text identifies the id, block,
	// and pool offset. Mmap returns it for a damaged namespace: a pool
	// header, set descriptor or hashtable header that fails its checksum. (A
	// pool written by another format version is not corrupt: that error
	// matches no sentinel and names the version found and the one read.)
	ErrCorrupt = core.ErrCorrupt
	// ErrStaleView reports an access through a zero-copy view whose lease is
	// no longer valid: the view was closed, or the handle group it was taken
	// on has been unmapped (Munmap invalidates every outstanding view).
	ErrStaleView = core.ErrStaleView
)

// MmapOption configures Mmap. The With* functional options below each adjust
// one configuration field; options apply in argument order. (The v1
// pass-a-*Options form was removed in v2.)
type MmapOption = core.MmapOption

// Functional Mmap options, re-exported from the core.
var (
	// WithCodec selects the serializer ("bp4", "flat", "cbin", "raw").
	WithCodec = core.WithCodec
	// WithLayout selects the data layout.
	WithLayout = core.WithLayout
	// WithMapSync enables MAP_SYNC semantics (the PMCPY-B configuration).
	WithMapSync = core.WithMapSync
	// WithPoolSize sets the pool file size for the hashtable layout.
	WithPoolSize = core.WithPoolSize
	// WithStagedSerialization enables the DRAM-staging ablation.
	WithStagedSerialization = core.WithStagedSerialization
	// WithParallelism sets the per-rank copy-engine worker count.
	WithParallelism = core.WithParallelism
	// WithReadParallelism sets the gather engine's worker count independently
	// of the write engine's (0 follows WithParallelism, 1 forces serial).
	WithReadParallelism = core.WithReadParallelism
	// WithMetrics enables latency/shape histograms on the handle (operation,
	// device, allocator and cache counters are always on; see PMEM.Metrics).
	WithMetrics = core.WithMetrics
	// WithTracing enables span-style operation tracing: persist/fence trace
	// points nest under the API call that triggered them (see PMEM.TraceSpans).
	WithTracing = core.WithTracing
	// WithVerifyReads selects the read-path CRC verification mode (VerifyOff,
	// VerifySampled, VerifyFull). Verification never advances virtual time.
	WithVerifyReads = core.WithVerifyReads
	// WithScrubber caps PMEM.Scrub at the given bytes per virtual second:
	// each pass paces itself against the virtual clock (0 = unpaced).
	WithScrubber = core.WithScrubber
	// WithAsync enables the asynchronous submission pipeline: StoreAsync,
	// StoreSubAsync, and LoadSubAsync queue their ops and return Futures,
	// and queued stores group-commit in batches (see PMEM.Flush/Drain).
	WithAsync = core.WithAsync
	// WithCoalesceWindow sets how many queued async submissions seal a batch
	// for group commit (0 = default 32). The queue holds 8 windows; a full
	// queue applies backpressure to submitters.
	WithCoalesceWindow = core.WithCoalesceWindow
)

// VerifyMode selects how aggressively reads check stored-block checksums.
type VerifyMode = core.VerifyMode

// Verify modes for WithVerifyReads.
const (
	// VerifyOff performs no read-path CRC checks (the default); reads of
	// quarantined blocks still fail fast.
	VerifyOff = core.VerifyOff
	// VerifySampled fully verifies every k-th load operation.
	VerifySampled = core.VerifySampled
	// VerifyFull verifies every gathered block on every load.
	VerifyFull = core.VerifyFull
)

// ScrubReport summarizes one PMEM.Scrub pass: variables and blocks swept,
// bytes verified, corruptions found and quarantined, virtual time consumed.
type ScrubReport = core.ScrubReport

// DeepReport is PMEM.DeepCheck's result: every published block's CRC
// verified, mismatches listed with their id, block index, and pool offset.
type DeepReport = fsck.DeepReport

// MetricsSnapshot is a point-in-time view of a handle's observability
// metrics, returned by PMEM.Metrics. Snapshots render as Prometheus-style
// exposition text (WriteProm) or are walked directly.
type MetricsSnapshot = obs.Snapshot

// Metric is one instrument's value within a MetricsSnapshot.
type Metric = obs.MetricValue

// Span is one traced operation: its id, rank, virtual start/end times, the
// device persist/fence points it hit, and nested child operations. Returned
// by PMEM.TraceSpans on handles opened with WithTracing.
type Span = obs.Span

// Mmap opens (creating if necessary) the pMEMCPY store at path. Collective:
// every rank calls it with the same arguments. Configuration is optional —
// pass nothing for the paper's evaluated defaults, or any combination of
// functional options (applied in argument order):
//
//	pm, err := pmemcpy.Mmap(c, n, "/data.pool",
//		pmemcpy.WithMapSync(), pmemcpy.WithParallelism(8))
func Mmap(c *Comm, n *Node, path string, opts ...MmapOption) (*PMEM, error) {
	return core.Mmap(c, n, path, opts...)
}

// Scalar is the set of element types storable in arrays and scalars.
type Scalar interface {
	~int8 | ~uint8 | ~int16 | ~uint16 | ~int32 | ~uint32 |
		~int64 | ~uint64 | ~float32 | ~float64
}

// dtypeOf maps a Go element type to its on-storage type tag.
func dtypeOf[T Scalar]() serial.DType {
	var z T
	switch any(z).(type) {
	case int8:
		return serial.Int8
	case uint8:
		return serial.Uint8
	case int16:
		return serial.Int16
	case uint16:
		return serial.Uint16
	case int32:
		return serial.Int32
	case uint32:
		return serial.Uint32
	case int64:
		return serial.Int64
	case uint64:
		return serial.Uint64
	case float32:
		return serial.Float32
	case float64:
		return serial.Float64
	default:
		// Derived types (~int8 etc.): size-based fallback keeps layout
		// correct; signedness of derived integer types is preserved by the
		// caller's view, so Uint* tags are safe for storage purposes.
		switch bytesview.Size[T]() {
		case 1:
			return serial.Uint8
		case 2:
			return serial.Uint16
		case 4:
			return serial.Uint32
		default:
			return serial.Uint64
		}
	}
}

// Store persists a single scalar value under id (pmem.store<T>(id, data)).
func Store[T Scalar](p *PMEM, id string, v T) error {
	d := &serial.Datum{Type: dtypeOf[T](), Payload: bytesview.Bytes([]T{v})}
	return p.StoreDatum(id, d)
}

// Load reads back a scalar stored with Store (pmem.load<T>(id)).
func Load[T Scalar](p *PMEM, id string) (T, error) {
	var zero T
	var v [1]T
	dst := bytesview.Bytes(v[:])
	got, n, err := p.LoadInto(id, dst)
	if err != nil {
		return zero, err
	}
	want := dtypeOf[T]()
	if got != want && got.Size() != want.Size() {
		return zero, fmt.Errorf("pmemcpy: id %q holds %v, requested %v: %w", id, got, want, ErrTypeMismatch)
	}
	if n < len(dst) {
		return zero, fmt.Errorf("pmemcpy: id %q holds no elements: %w", id, ErrNotFound)
	}
	return v[0], nil
}

// StoreString persists a string under id (equivalent to p.StoreString).
func StoreString(p *PMEM, id, s string) error {
	return p.StoreString(id, s)
}

// LoadString reads back a string stored with StoreString (equivalent to
// p.LoadString).
func LoadString(p *PMEM, id string) (string, error) {
	return p.LoadString(id)
}

// Alloc declares the final global dimensions of array id
// (pmem.alloc<T>(id, ndims, dims)). The dimensions are stored automatically
// under id+"#dims".
func Alloc[T Scalar](p *PMEM, id string, dims ...uint64) error {
	return p.Alloc(id, dtypeOf[T](), dims)
}

// StoreSub stores this rank's block of array id at the given element offsets
// (pmem.store<T>(id, data, ndims, offsets, dimspp)). data is the block's
// row-major elements; its length must cover the product of counts.
func StoreSub[T Scalar](p *PMEM, id string, data []T, offs, counts []uint64) error {
	return p.StoreBlock(id, offs, counts, bytesview.Bytes(data))
}

// LoadSub fills dst with the requested block of array id
// (pmem.load<T>(id, data, ndims, offsets, dimspp)).
func LoadSub[T Scalar](p *PMEM, id string, dst []T, offs, counts []uint64) error {
	return p.LoadBlock(id, offs, counts, bytesview.Bytes(dst))
}

// Future is the completion handle of one asynchronous submission: Done
// reports completion, Wait joins it (driving the queue) and returns the op's
// error, Bytes the encoded bytes moved. A completed Future's data is readable
// and crash-durable; see PMEM.Flush and PMEM.Drain for the batch-level
// contract.
type Future = core.Future

// StoreSubAsync is StoreSub's asynchronous form: it submits the block store
// to the handle's queue (opened WithAsync) and returns its Future. data must
// stay untouched until the Future completes. Without WithAsync it stores
// synchronously and returns a completed Future. Adjacent same-id submissions
// coalesce into single blocks under identity codecs ("raw").
func StoreSubAsync[T Scalar](p *PMEM, id string, data []T, offs, counts []uint64) *Future {
	return p.StoreBlockAsync(id, offs, counts, bytesview.Bytes(data))
}

// LoadSubAsync is LoadSub's asynchronous form: dst is filled when the Future
// completes, observing every earlier same-id submission on this handle.
func LoadSubAsync[T Scalar](p *PMEM, id string, dst []T, offs, counts []uint64) *Future {
	return p.LoadBlockAsync(id, offs, counts, bytesview.Bytes(dst))
}

// StoreAsync is Store's asynchronous form: it submits the scalar store and
// returns its Future.
func StoreAsync[T Scalar](p *PMEM, id string, v T) *Future {
	d := &serial.Datum{Type: dtypeOf[T](), Payload: bytesview.Bytes([]T{v})}
	return p.StoreDatumAsync(id, d)
}

// StoreSlice stores a whole array in one call: it declares dims (Alloc) and
// stores the full extent. data too short for dims declares nothing.
func StoreSlice[T Scalar](p *PMEM, id string, data []T, dims ...uint64) error {
	if n, ok := dtypeOf[T]().ByteSize(dims); !ok || n > uint64(len(data))*uint64(bytesview.Size[T]()) {
		return fmt.Errorf("pmemcpy: StoreSlice(%q) of %d elements, dims %v: %w", id, len(data), slices.Clone(dims), ErrOutOfBounds)
	}
	if err := Alloc[T](p, id, dims...); err != nil {
		return err
	}
	offs := make([]uint64, len(dims))
	return StoreSub(p, id, data, offs, dims)
}

// LoadSlice reads back a whole array and its dimensions.
func LoadSlice[T Scalar](p *PMEM, id string) ([]T, []uint64, error) {
	dims, err := LoadDims(p, id)
	if err != nil {
		return nil, nil, err
	}
	n, ok := dtypeOf[T]().ByteSize(dims)
	if !ok {
		return nil, nil, fmt.Errorf("pmemcpy: LoadSlice(%q) dims %v overflow 64 bits: %w", id, dims, ErrOutOfBounds)
	}
	out := make([]T, n/uint64(bytesview.Size[T]()))
	offs := make([]uint64, len(dims))
	if err := LoadSub(p, id, out, offs, dims); err != nil {
		return nil, nil, err
	}
	return out, dims, nil
}

// LoadDims returns the dimensions declared for array id
// (pmem.load_dims(id)).
func LoadDims(p *PMEM, id string) ([]uint64, error) {
	_, dims, err := p.LoadDims(id)
	return dims, err
}

// PFS is the shared burst-buffer/mass-storage tier behind the node-local
// PMEM (the paper's Figure 1 architecture).
type PFS = burstbuffer.PFS

// NewPFS builds a PFS tier; zero arguments select the default profile
// (2 GB/s node uplink, 500 µs per-operation latency).
func NewPFS(bandwidth float64, latency time.Duration) *PFS {
	return burstbuffer.NewPFS(bandwidth, latency)
}

// Flusher asynchronously drains a store to a PFS, the paper's "burst buffer
// ... triggered to asynchronously flush the buffered data to mass storage".
type Flusher = burstbuffer.Flusher

// NewFlusher builds a flusher targeting pfs. Set Evict to free PMEM
// capacity as variables land safely on the PFS.
func NewFlusher(pfs *PFS) *Flusher { return burstbuffer.NewFlusher(pfs) }

// Restore stages PFS objects under prefix back into the store (prefetch).
func Restore(p *PMEM, pfs *PFS, prefix string) (int64, error) {
	return burstbuffer.Restore(p, pfs, prefix)
}

// BlockStats describes one stored block's shape and value range.
type BlockStats = core.BlockStats

// MinMax returns the value range of array id: of every block stored since
// the id was last written whole or deleted. Under the default BP4 serializer
// this reads only per-block characteristics (a few header bytes per listed
// block), the "lightweight data characterization" the paper credits the BP
// format with; stat-less codecs fall back to scanning.
func MinMax(p *PMEM, id string) (mn, mx float64, err error) {
	return p.MinMax(id)
}

// FindBlocks returns the stored blocks of id whose value range intersects
// [lo, hi], skipping non-matching blocks without reading their data.
func FindBlocks(p *PMEM, id string, lo, hi float64) ([]BlockStats, error) {
	return p.FindBlocks(id, lo, hi)
}

// StoreStruct persists a structured value — a Go struct with arbitrary
// nesting, dynamically sized slices, fixed arrays and strings — under id.
// This covers the two things the paper notes HDF5 compound types cannot
// express: nested compound types and dynamically sized arrays. v may be a
// struct or a pointer to one; only exported fields are stored. The value is
// encoded with encoding/gob, so the rules of a gob-encodable type apply.
// Equivalent to p.StoreStruct.
func StoreStruct(p *PMEM, id string, v any) error {
	return p.StoreStruct(id, v)
}

// LoadStruct reads a structured value stored with StoreStruct into out,
// which must be a non-nil pointer to a struct. Fields are matched by name:
// unknown fields in the data are skipped and missing ones keep their current
// values, so readers and writers may evolve independently. As with
// encoding/gob, a field stored at its zero value (0, "", false, an empty
// slice) is not in the data either, so it too leaves out's field as it was:
// load into a zero value to get back exactly what was stored. Malformed data
// is an error. Equivalent to p.LoadStruct.
func LoadStruct(p *PMEM, id string, out any) error {
	return p.LoadStruct(id, out)
}
