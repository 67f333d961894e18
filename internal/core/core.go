// Package core implements pMEMCPY itself: the paper's simple, lightweight,
// portable I/O library for storing data in persistent memory.
//
// Design, following Section 3 of the paper:
//
//   - A key-value interface over node-local PMEM: store/load scalars and
//     N-dimensional arrays by id with memcpy-like simplicity.
//   - The pool is a file on the DAX filesystem, mmap'ed into the process;
//     PMDK (package pmdk) provides the transactional allocator, consistency
//     guarantees, concurrency control and memory allocation policies.
//   - Data is serialized *directly into PMEM* through the mapping — no DRAM
//     staging buffer — using a pluggable codec (BP4 by default; serialization
//     can be disabled entirely with the raw codec).
//   - Metadata lives in a flat namespace: a persistent hashtable with
//     chaining. Array dimensions are stored automatically under id+"#dims"
//     and queried with LoadDims.
//   - Alternatively, data can be laid out hierarchically on the PMEM's
//     filesystem: every "/" in an id creates a directory and each variable
//     becomes its own file (package hierarchy layout).
//   - MAP_SYNC is a per-handle toggle: enabled it gives stronger crash
//     guarantees at a significant latency penalty (the paper's PMCPY-B).
package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"pmemcpy/internal/mpi"
	"pmemcpy/internal/node"
	"pmemcpy/internal/pmdk"
	"pmemcpy/internal/pmem"
	"pmemcpy/internal/posixfs"
	"pmemcpy/internal/serial"
	"pmemcpy/internal/sim"
)

// Options configures Mmap. Every field names the EXPERIMENTS.md row that
// sweeps it; a knob no experiment, flag or caller moves is a constant instead.
type Options struct {
	// Codec names the serializer ("bp4", "flat", "cbin", "raw"); empty
	// selects the default BP4. Swept by E7.
	Codec string
	// Layout selects the data layout. Swept by E5.
	Layout Layout
	// MapSync enables MAP_SYNC semantics on the mapping (PMCPY-B). Swept by
	// E6, and the A/B columns of E1 and E2.
	MapSync bool
	// PoolSize is the pool file size for the hashtable layout; 0 sizes it
	// to 3/4 of the device. Deployment sizing, not an ablation: every E-row's
	// harness run sets it from its dataset (harness.runOnce).
	PoolSize int64
	// StagedSerialization disables the direct-to-PMEM path: data is
	// serialized into a DRAM buffer first and then copied to PMEM, the way
	// the related work the paper contrasts against behaves ("serializes
	// data structures into an in-memory buffer and then copies to PMEM").
	// It exists for the staging ablation (E4) and costs one extra full
	// pass per store.
	StagedSerialization bool
	// Parallelism is the number of worker goroutines a single rank uses to
	// copy large store payloads into PMEM (the goroutine analogue of the
	// paper's procs sweep). Values <= 1 keep every store on the serial
	// path. It also sizes the pool's allocator arenas, so concurrent
	// workers allocate without contending on one lock. Reads use the same
	// worker count unless ReadParallelism overrides it. Swept by E12
	// (-ablation parallel).
	Parallelism int
	// ReadParallelism overrides the worker count for the gather (read)
	// engine only: 0 follows Parallelism, 1 forces serial reads, k > 1 runs
	// k gather workers. It exists so the read-parallel ablation (E13) can
	// sweep readers while writes stay serial.
	ReadParallelism int
	// Metrics enables latency/shape histogram recording. Operation, device,
	// allocator and cache counters are always on (plain atomics); histograms
	// additionally read the virtual clock around every op, so they sit
	// behind this switch. Metrics never advance the virtual clock either
	// way — virtual-time results are identical with metrics on or off.
	// E14's hist variant.
	Metrics bool
	// Tracing enables span-style op tracing: every API call becomes a span
	// and the persist/fence points it triggers nest under it. Retrieve with
	// PMEM.TraceSpans. E14's trace variant.
	Tracing bool
	// VerifyReads selects the read-path CRC verification mode (integrity.go):
	// off (default), sampled, or full. Quarantine fail-fast is active in
	// every mode. Verification never advances the virtual clock, so
	// virtual-time results are identical across modes. Swept by E15.
	VerifyReads VerifyMode
	// ScrubRate caps Scrub's throughput at this many bytes per virtual
	// second (0 = unpaced): the pass advances the virtual clock so that its
	// sweep never outruns the configured rate. An operator's setting, not an
	// ablation: `pmemcli scrub -rate` carries it.
	ScrubRate int64
	// Async enables the asynchronous submission pipeline (async.go): the
	// *Async entry points queue ops and return Futures, and batches of up to
	// CoalesceWindow submissions group-commit together. It needs a layout
	// with pools; under the hierarchy layout the *Async calls run eagerly.
	// E16's sync-vs-window columns.
	Async bool
	// CoalesceWindow is the number of queued submissions that seal a batch
	// for group commit (0 = default 32). Adjacent same-id sub-stores inside
	// a batch merge into single blocks under identity codecs. The submission
	// queue holds at most defaultInflightWindows of them before submitting
	// stalls. Swept by E16 (window 1 vs 32).
	CoalesceWindow int
	// Pools stripes the namespace over this many independent pools, one per
	// PMEM device of the node (which must have been built with that many
	// devices). Ids are placed on a home pool by a deterministic hash and
	// large parallel stores stripe their shards round-robin across all
	// pools, so aggregate bandwidth scales with the pool count. Creation is
	// crash-consistent under pmdk's prepare/publish commit (pmdk.CreateSet),
	// whatever the count. Hashtable layout only. 0 = 1. Swept by E17.
	Pools int
}

// PMEM is the library handle, the analogue of pmemcpy::PMEM in Figure 2.
// One PMEM value is created per rank by Mmap; ranks share the underlying
// pool the way processes share a mapped pool file.
type PMEM struct {
	comm  *mpi.Comm
	node  *node.Node
	codec serial.Codec
	st    *shared
	// async is this rank's submission queue (async.go), nil unless the
	// handle group was mapped WithAsync on a layout with pools. Queues are
	// per-rank like clocks; the pool and metadata they commit into are
	// shared.
	async *asyncEngine
	// inl is where the commit engine builds an inline record (writeplan.go):
	// the handle's, like its clock, because a local array handed to the codec
	// interface would move to the heap on every publish. Allocated by the
	// first small store: a handle that only moves arrays never pays for it.
	inl *[inlinePrefix + inlineMax]byte
	// gs is the read engine's scratch (readplan.go), the handle's for the same
	// reason and allocated by its first read.
	gs *gatherScratch
	// ws is the commit engine's one-unit plan (store.go), for the same reason.
	ws *writeScratch
}

// shared is the node-wide state every rank's handle points at.
type shared struct {
	// opt is the handle group's configuration after Options.resolve: every
	// default is applied, so the engines read its fields as they stand.
	opt Options
	// lay is the layout (meta.go): where records and payload bytes live.
	lay layout
	// pools/hts are the pool layout's member pools and their metadata
	// hashtables, index-aligned: one of each per PMEM device the namespace
	// spans (a single entry on a single-pool handle; a single nil entry under
	// the hierarchy layout, which has one device and no pool).
	pools []*pmdk.Pool
	hts   []*pmdk.Hashtable
	// vars maps a variable's placement key -> *variable (meta.go): its one
	// lock and the DRAM block index that lock guards, shared by every rank of
	// the handle group like the pool itself.
	vars sync.Map
	// The block-index counters: index lookups served from DRAM, lookups that
	// built the index, and writer-side drops.
	cacheHits, cacheMisses, cacheInvalidations atomic.Int64

	// ins is the observability state (instrument.go), shared like the pool.
	ins *instruments

	// Integrity state (integrity.go): the sampled-verify counter and the DRAM
	// mirror of the persistent quarantine list. quarLen shadows len(quar) so
	// the nothing-quarantined fast path is a single atomic load.
	verifyCtr atomic.Uint64
	quarMu    sync.Mutex
	quar      map[poolPMID]struct{}
	quarLen   atomic.Int64

	// asyncDepth aggregates the ranks' queued-submission counts (async.go)
	// for the queue-depth gauge.
	asyncDepth atomic.Int64

	// Copy-engine counters, surfaced through StoreStats.
	parallelStores   atomic.Int64 // stores that took the parallel path
	parallelBlocks   atomic.Int64 // shard blocks written by the parallel path
	parallelReads    atomic.Int64 // loads that took the parallel gather path
	parallelReadJobs atomic.Int64 // gather jobs those loads executed

	// Zero-copy view lease state (view.go). viewMu guards the epoch counter,
	// the per-epoch open-lease counts and limbo, the blocks parked while a
	// lease was open, of every member pool. viewActive shadows the total
	// open-lease count and limboLen len(limbo) so the no-views fast paths are
	// single atomic loads. viewsInvalid is set by Munmap and fails every
	// outstanding view fast with ErrStaleView.
	viewMu       sync.Mutex
	viewEpoch    uint64
	viewLeases   map[uint64]int
	limbo        []parked
	viewActive   atomic.Int64
	limboLen     atomic.Int64
	viewLeaked   atomic.Int64
	viewsInvalid atomic.Bool
}

// Mmap opens (creating if necessary) the pMEMCPY store at path. It is
// collective over c: all ranks must call it with the same arguments, just as
// all processes of an MPI job map the same pool file (Figure 3, line 14).
//
// Configuration is variadic: pass nothing for the paper's evaluated defaults,
// or functional options (WithMapSync, WithLayout, WithParallelism, ...), which
// apply in argument order — a later option overrides an earlier one that sets
// the same field. A nil option is skipped.
func Mmap(c *mpi.Comm, n *node.Node, path string, opts ...MmapOption) (*PMEM, error) {
	o := Options{}
	for _, op := range opts {
		if op != nil {
			op.ApplyMmapOption(&o)
		}
	}
	o = o.resolve(n)
	codec, err := serial.Get(o.Codec)
	if err != nil {
		return nil, err
	}

	var st *shared
	if c.Rank() == 0 {
		st, err = openShared(c, n, path, o)
		if err != nil {
			// Propagate the failure to every rank through the share.
			if _, serr := c.ShareLocal(0, (*shared)(nil)); serr != nil {
				return nil, serr
			}
			return nil, err
		}
	}
	got, err := c.ShareLocal(0, st)
	if err != nil {
		return nil, err
	}
	st, _ = got.(*shared)
	if st == nil {
		return nil, fmt.Errorf("core: rank 0 failed to open %q", path)
	}
	p := &PMEM{comm: c, node: n, codec: codec, st: st}
	if st.opt.Async {
		p.async = &asyncEngine{p: p}
	}
	return p, nil
}

// resolve returns o with every default applied — the one step where a zero
// knob becomes the value the engines run with, computed identically on every
// rank. n supplies the device the pool size defaults from.
func (o Options) resolve(n *node.Node) Options {
	if o.Codec == "" {
		o.Codec = "bp4"
	}
	if o.Parallelism < 1 {
		o.Parallelism = 1
	}
	if o.ReadParallelism == 0 {
		o.ReadParallelism = o.Parallelism
	}
	if o.ReadParallelism < 1 {
		o.ReadParallelism = 1
	}
	if o.Pools < 1 {
		o.Pools = 1
	}
	if o.PoolSize == 0 {
		o.PoolSize = n.Device.Size() / 4 * 3
	}
	if o.CoalesceWindow <= 0 {
		o.CoalesceWindow = defaultCoalesceWindow
	}
	return o
}

// openShared builds the node-wide state from the resolved options (rank 0
// only).
func openShared(c *mpi.Comm, n *node.Node, path string, o Options) (*shared, error) {
	clk := c.Clock()
	st := &shared{
		opt:        o,
		pools:      make([]*pmdk.Pool, o.Pools),
		hts:        make([]*pmdk.Hashtable, o.Pools),
		quar:       make(map[poolPMID]struct{}),
		viewLeases: make(map[uint64]int),
	}
	var err error
	if st.lay, err = newLayout(clk, st, n, path); err != nil {
		return nil, err
	}
	if st.lay.caps().pool {
		// Repopulate the quarantine fail-fast mirror from the persistent
		// list, so a reopen after a crash keeps refusing reads of known-bad
		// blocks.
		if err := st.loadQuarantine(clk); err != nil {
			return nil, err
		}
	}
	// The pipeline commits through pool transactions.
	st.opt.Async = o.Async && st.lay.caps().pool
	st.ins = newInstruments(st, n)
	return st, nil
}

// setID derives the cross-pool commit identifier from the namespace path, so
// every rank and every reopen binds the same member pools together.
func setID(path string) uint64 { return fnv1a(path) }

// openPools maps the namespace's pool file on each member device and opens
// the member pools and their hashtables. Every namespace is a pmdk pool set,
// the single pool its 1-member case: a set whose publish record is absent —
// the files are new, or creation crashed before its commit point — is created
// under pmdk's prepare/publish protocol; the namespace never existed, so no
// data can be lost. A damaged record is an error, never a reason to format: a
// header, descriptor or table that fails its checksum or magic
// (pmdk.ErrCorrupt) is reported as ErrCorrupt — stored bytes that are not what
// was published — with the pmdk error still in the chain. A pool of another
// format version (pmdk.ErrBadPool) is intact, just not this build's to read.
func (st *shared) openPools(clk *sim.Clock, n *node.Node, path string) error {
	o := &st.opt
	if o.Pools > 1 && n.Pools() != o.Pools {
		return fmt.Errorf("core: WithPools(%d) needs a node built with %d PMEM devices, have %d",
			o.Pools, o.Pools, n.Pools())
	}
	maps := make([]*pmem.Mapping, o.Pools)
	for i := range maps {
		fs := n.FSAt(i)
		f, err := fs.Open(clk, path)
		if errors.Is(err, posixfs.ErrNotExist) {
			f, err = fs.Create(clk, path)
		}
		// An empty file is one just created, here or before a crash.
		if err == nil && f.Size() == 0 {
			err = f.Truncate(clk, o.PoolSize)
		}
		if err != nil {
			return err
		}
		if maps[i], err = f.Mmap(clk, o.MapSync); err != nil {
			return err
		}
	}

	pools, err := pmdk.OpenSet(clk, maps)
	if errors.Is(err, pmdk.ErrSetUnpublished) {
		// Arenas are pinned rather than left to GOMAXPROCS so virtual-time
		// results are host-independent: at least 8 (one per DIMM of the
		// modelled node, the count needed to saturate PMEM), more if the copy
		// engine runs more workers than that.
		po := pmdk.DefaultOptions()
		po.Arenas = max(8, o.Parallelism)
		pools, err = pmdk.CreateSet(clk, setID(path), maps, &po)
	}
	for i := 0; err == nil && i < len(pools); i++ {
		st.pools[i] = pools[i]
		if st.hts[i], err = pools[i].RootHashtable(clk); err != nil {
			err = fmt.Errorf("core: pool %d hashtable: %w", i, err)
		}
	}
	if errors.Is(err, pmdk.ErrCorrupt) {
		err = fmt.Errorf("core: namespace %q: %w: %w", path, ErrCorrupt, err)
	}
	return err
}

// Munmap closes the handle collectively. The rank's submission queue drains
// first — a closed handle never abandons queued asynchronous writes — and a
// drain failure is reported after the ranks synchronize, so the collective
// still completes on every rank.
func (p *PMEM) Munmap() error {
	var derr error
	if p.async != nil {
		derr = p.async.flush(context.Background(), nil)
	}
	if err := p.comm.Barrier(); err != nil {
		return err
	}
	// Every outstanding zero-copy view is now stale: the mapping it aliases
	// is gone. Views fail fast with ErrStaleView from here on, and blocks
	// still parked in limbo stay there — recoverable garbage, the same
	// contract as a crash between an unlink and its free (view.go).
	p.st.viewsInvalid.Store(true)
	// A traced group's tracer stops being the devices' event sink, unless a
	// later traced group has already replaced it; its spans stay readable.
	if tr := p.st.ins.tracer; tr != nil && p.comm.Rank() == 0 {
		for i := 0; i < p.node.Pools(); i++ {
			p.node.DeviceAt(i).ClearEventSink(tr)
		}
	}
	return derr
}

// Comm returns the communicator the handle was mapped with.
func (p *PMEM) Comm() *mpi.Comm { return p.comm }

// MapSync reports whether the handle runs with MAP_SYNC semantics.
func (p *PMEM) MapSync() bool { return p.st.opt.MapSync }

// CodecName returns the active serializer's name.
func (p *PMEM) CodecName() string { return p.codec.Name() }

// Pools returns the number of member pools backing this handle (1 for the
// classic single-pool store and the hierarchy layout).
func (p *PMEM) Pools() int { return len(p.st.pools) }

// HomePool returns the member pool index the id's metadata and serially
// stored payloads route to. Always 0 on a single-pool handle. The placement
// is deterministic (FNV-1a over the id), so tools like pmemcli can report it
// without touching the medium.
func (p *PMEM) HomePool(id string) int { return p.st.homeIdx(id) }

// homeIdx and poolOf are the handle-side routing shorthands.
func (p *PMEM) homeIdx(id string) int      { return p.st.homeIdx(id) }
func (p *PMEM) poolOf(pi uint8) *pmdk.Pool { return p.st.pools[pi] }

// chargeStoreBytes accounts the staging ablation's store of n encoded bytes
// into pool pi: a DRAM encode pass followed by a separate device copy — the
// double movement the paper's design eliminates, and chargeMove's single pass
// replaces on the default direct path.
func (p *PMEM) chargeStoreBytes(pi int, n int64, passes float64) {
	p.chargeCodec(sim.Store, n, passes)
	p.st.pools[pi].Mapping().ChargeWrite(p.comm.Clock(), n)
}

// chargeCodec accounts n bytes streamed through the codec with no device on
// the path — encode passes (Store) into a DRAM buffer, decode passes (Load)
// over bytes another charge already brought in.
func (p *PMEM) chargeCodec(dir sim.Dir, n int64, passes float64) {
	cfg := p.node.Machine.Config()
	bps := cfg.SerializeBPS
	if dir == sim.Load {
		bps = cfg.DeserializeBPS
	}
	p.node.Machine.ChargePasses(p.comm.Clock(), n, passes, bps, p.comm.Size())
}

// poolBytes is the bytes one job moved into or out of one member pool.
type poolBytes struct {
	pool  int
	bytes int64
}

// chargeMove accounts one wave of the copy engines — `workers` concurrent
// streams moved the listed bytes between DRAM and mapped PMEM in a single
// (de)serialization pass — as one sim DAX move: the bytes tally per member
// pool into one stripe on that device's port, at the direction's codec rate.
// A serial store or load is the one-entry, one-worker case.
func (p *PMEM) chargeMove(dir sim.Dir, moved []poolBytes, passes float64, workers int) {
	m := p.node.Machine
	cfg := m.Config()
	bps, port := cfg.SerializeBPS, (*pmem.Device).WritePort
	if dir == sim.Load {
		bps, port = cfg.DeserializeBPS, (*pmem.Device).ReadPort
	}
	var buf [8]sim.Stripe
	stripes := buf[:0]
	for pi, pool := range p.st.pools {
		var n int64
		for _, mv := range moved {
			if mv.pool == pi {
				n += mv.bytes
			}
		}
		if n > 0 {
			stripes = append(stripes, sim.Stripe{Port: port(pool.Mapping().Device()), Bytes: n})
		}
	}
	m.ChargeMove(p.comm.Clock(), dir, stripes, bps, p.comm.Size(), workers, passes, p.st.opt.MapSync)
}

// chargeReadLatency accounts a read that touches a handful of bytes or none:
// opening a zero-copy view (the application's in-place traversal is the read,
// and it happens outside the library at DRAM load granularity — precisely the
// copy elimination the view exists to model) or reading one block's
// characteristics header.
func (p *PMEM) chargeReadLatency() { p.node.Machine.ChargeReadLatency(p.comm.Clock()) }

// Alloc declares the final global dimensions of array id (Figure 2's
// pmem.alloc<T>): it stores dims under id+"#dims". Ranks may all call it;
// the first definition wins and later identical definitions are no-ops.
func (p *PMEM) Alloc(id string, dtype serial.DType, gdims []uint64) error {
	p.asyncBarrier()
	op := p.beginOp(opAlloc, id)
	err := p.alloc(id, dtype, gdims)
	op.done(false, 0, err)
	return err
}

func (p *PMEM) alloc(id string, dtype serial.DType, gdims []uint64) error {
	if len(gdims) == 0 || len(gdims) > serial.MaxDims {
		return fmt.Errorf("core: Alloc(%q) with rank %d: %w", id, len(gdims), ErrOutOfBounds)
	}
	v := p.variable(id)
	v.Lock()
	defer v.Unlock()
	// A fresh id is the common case: probe for the record, build no error.
	var buf [serial.MaxDims]uint64
	if existing, ok, err := p.dims(id, buf[:0]); err == nil && ok {
		if !slices.Equal(existing.dims, gdims) {
			// A clone to format: buf itself handed to Errorf would move to the
			// heap on every Alloc.
			return fmt.Errorf("core: Alloc(%q) conflicts with existing dims %v: %w", id, slices.Clone(existing.dims), ErrTypeMismatch)
		}
		if existing.dtype != dtype {
			return fmt.Errorf("core: Alloc(%q) conflicts with existing type %v: %w",
				id, existing.dtype, ErrTypeMismatch)
		}
		return nil
	}
	return p.st.lay.put(p, id, DimsSuffix, encodeDims(dimsRecord{dtype: dtype, dims: gdims}))
}

// LoadDims returns the global dimensions and element type declared for id.
func (p *PMEM) LoadDims(id string) (serial.DType, []uint64, error) {
	rec, err := p.loadDims(id, nil)
	if err != nil {
		return serial.Invalid, nil, err
	}
	return rec.dtype, rec.dims, nil
}
