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
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"pmemcpy/internal/mpi"
	"pmemcpy/internal/node"
	"pmemcpy/internal/obs"
	"pmemcpy/internal/pmdk"
	"pmemcpy/internal/pmem"
	"pmemcpy/internal/posixfs"
	"pmemcpy/internal/serial"
	"pmemcpy/internal/sim"
)

// Layout selects where pMEMCPY keeps data and metadata.
type Layout int

// Layouts.
const (
	// LayoutHashtable stores all data in a single pool file with a flat
	// persistent-hashtable namespace (the paper's default and the
	// configuration used in its evaluation).
	LayoutHashtable Layout = iota
	// LayoutHierarchy stores each variable in its own file under a
	// directory tree derived from "/"-separated ids.
	LayoutHierarchy
)

// DimsSuffix is appended to an id to form the key holding its dimensions,
// exactly as the paper describes ("by appending '#dims' to the id").
const DimsSuffix = "#dims"

// Options configures Mmap.
type Options struct {
	// Codec names the serializer ("bp4", "flat", "cbin", "raw"); empty
	// selects the default BP4.
	Codec string
	// Layout selects the data layout.
	Layout Layout
	// MapSync enables MAP_SYNC semantics on the mapping (PMCPY-B).
	MapSync bool
	// PoolSize is the pool file size for the hashtable layout; 0 sizes it
	// to 3/4 of the device.
	PoolSize int64
	// Buckets is the metadata hashtable's bucket count (0 = default).
	Buckets uint64
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
	// worker count unless ReadParallelism overrides it.
	Parallelism int
	// ReadParallelism overrides the worker count for the gather (read)
	// engine only: 0 follows Parallelism, 1 forces serial reads, k > 1 runs
	// k gather workers. It exists so the read-parallel ablation can sweep
	// readers while writes stay serial.
	ReadParallelism int
	// Metrics enables latency/shape histogram recording. Operation, device,
	// allocator and cache counters are always on (plain atomics); histograms
	// additionally read the virtual clock around every op, so they sit
	// behind this switch. Metrics never advance the virtual clock either
	// way — virtual-time results are identical with metrics on or off.
	Metrics bool
	// MetricsSampling records every k-th op in the latency histograms
	// (0 or 1 = every op). Counters are never sampled.
	MetricsSampling int
	// Tracing enables span-style op tracing: every API call becomes a span
	// and the persist/fence points it triggers nest under it. Retrieve with
	// PMEM.TraceSpans.
	Tracing bool
	// VerifyReads selects the read-path CRC verification mode (integrity.go):
	// off (default), sampled, or full. Quarantine fail-fast is active in
	// every mode. Verification never advances the virtual clock, so
	// virtual-time results are identical across modes.
	VerifyReads VerifyMode
	// ScrubRate caps Scrub's throughput at this many bytes per virtual
	// second (0 = unpaced): the pass advances the virtual clock so that its
	// sweep never outruns the configured rate.
	ScrubRate int64
	// Async enables the asynchronous submission pipeline (async.go): the
	// *Async entry points queue ops and return Futures, and batches of up to
	// CoalesceWindow submissions group-commit together. Hashtable layout
	// only; under the hierarchy layout the *Async calls run eagerly.
	Async bool
	// CoalesceWindow is the number of queued submissions that seal a batch
	// for group commit (0 = default 32). Adjacent same-id sub-stores inside
	// a batch merge into single blocks under identity codecs.
	CoalesceWindow int
	// MaxInflight bounds the submission queue: once this many ops are
	// queued, submitting blocks (committing the oldest batch inline) — the
	// pipeline's backpressure. 0 defaults to 8 coalesce windows; values
	// below one window are raised to it.
	MaxInflight int
	// Pools stripes the namespace over this many independent pools, one per
	// PMEM device of the node (which must have been built with that many
	// devices). Ids are placed on a home pool by a deterministic hash and
	// large parallel stores stripe their shards round-robin across all
	// pools, so aggregate bandwidth scales with the pool count. Creation is
	// crash-consistent under a cross-pool prepare/publish commit
	// (pmdk.CreateSet). Hashtable layout only. 0 or 1 = single pool.
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
	// handle group was mapped WithAsync on the hashtable layout. Queues are
	// per-rank like clocks; the pool and metadata they commit into are
	// shared.
	async *asyncEngine
}

// shared is the node-wide state every rank's handle points at.
type shared struct {
	layout  Layout
	mapSync bool
	staged  bool // StagedSerialization ablation
	par     int  // write copy-engine workers per rank (<=1: serial path)
	rpar    int  // gather (read) engine workers per rank (<=1: serial path)
	pool    *pmdk.Pool
	ht      *pmdk.Hashtable
	hier    *hierStore
	// pools/hts are the sharded namespace's member pools and their metadata
	// hashtables (multi-pool handles only; pools[0] == pool, hts[0] == ht).
	// Single-pool handles leave them nil and every pool index resolves to
	// the one pool, so the routing helpers below are uniform.
	pools []*pmdk.Pool
	hts   []*pmdk.Hashtable
	// varLocks maps id -> *sync.RWMutex. Writers hold the write lock across
	// their metadata republish; readers hold the read lock only while
	// reading persistent metadata on a cache miss (hits bypass it).
	varLocks sync.Map

	// cache is the DRAM block-index cache (blockcache.go), shared by every
	// rank of the handle group like the pool itself.
	cache *blockCache

	// ins is the observability state (instrument.go), shared like the pool.
	ins *instruments

	// Integrity state (integrity.go): the read-path verify mode with its
	// sampling counter, the scrubber's rate limit, and the DRAM mirror of
	// the persistent quarantine list. quarLen shadows len(quar) so the
	// nothing-quarantined fast path is a single atomic load.
	verify    VerifyMode
	verifyCtr atomic.Uint64
	scrubRate int64
	quarMu    sync.Mutex
	quar      map[poolPMID]struct{}
	quarLen   atomic.Int64

	// Async pipeline configuration (async.go), resolved by openShared so
	// every rank's engine runs the same window/backpressure bounds.
	// asyncDepth aggregates the ranks' queued-submission counts for the
	// queue-depth gauge.
	asyncOn       bool
	asyncWindow   int
	asyncInflight int
	asyncDepth    atomic.Int64

	// Copy-engine counters, surfaced through StoreStats.
	parallelStores   atomic.Int64 // stores that took the parallel path
	parallelBlocks   atomic.Int64 // shard blocks written by the parallel path
	parallelReads    atomic.Int64 // loads that took the parallel gather path
	parallelReadJobs atomic.Int64 // gather jobs those loads executed

	// Zero-copy view lease state (view.go). viewMu guards the epoch counter
	// and the per-epoch open-lease counts; limbos holds one deferred-free
	// arena per member pool (index-aligned with pools). viewActive shadows
	// the total open-lease count and limboLen the total parked-block count so
	// the no-views fast paths are single atomic loads. viewsInvalid is set by
	// Munmap and fails every outstanding view fast with ErrStaleView.
	viewMu       sync.Mutex
	viewEpoch    uint64
	viewLeases   map[uint64]int
	limbos       []*pmdk.Limbo
	viewActive   atomic.Int64
	limboLen     atomic.Int64
	viewLeaked   atomic.Int64
	viewsInvalid atomic.Bool
}

// limboAt returns pool i's deferred-free arena (uniform over single- and
// multi-pool handles, like poolAt).
func (st *shared) limboAt(i int) *pmdk.Limbo { return st.limbos[i] }

// Mmap opens (creating if necessary) the pMEMCPY store at path. It is
// collective over c: all ranks must call it with the same arguments, just as
// all processes of an MPI job map the same pool file (Figure 3, line 14).
//
// Configuration is variadic: pass nothing for the paper's evaluated defaults,
// a *Options struct (every pre-existing call site, including nil, compiles
// unchanged), functional options (WithMapSync, WithLayout, WithParallelism,
// ...), or a mix — later options override earlier ones field by field.
func Mmap(c *mpi.Comm, n *node.Node, path string, opts ...MmapOption) (*PMEM, error) {
	o := Options{}
	for _, op := range opts {
		if op != nil {
			op.ApplyMmapOption(&o)
		}
	}
	codecName := o.Codec
	if codecName == "" {
		codecName = "bp4"
	}
	codec, err := serial.Get(codecName)
	if err != nil {
		return nil, err
	}

	var st *shared
	if c.Rank() == 0 {
		st, err = openShared(c, n, path, &o)
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
	if st.asyncOn {
		p.async = newAsyncEngine(p, st.asyncWindow, st.asyncInflight)
	}
	return p, nil
}

// openShared builds the node-wide state (rank 0 only).
func openShared(c *mpi.Comm, n *node.Node, path string, o *Options) (*shared, error) {
	clk := c.Clock()
	par := o.Parallelism
	if par < 1 {
		par = 1
	}
	rpar := o.ReadParallelism
	if rpar == 0 {
		rpar = par
	}
	if rpar < 1 {
		rpar = 1
	}
	if o.Layout == LayoutHierarchy {
		if o.Pools > 1 {
			return nil, fmt.Errorf("core: WithPools(%d) requires the hashtable layout", o.Pools)
		}
		if err := n.FS.MkdirAll(clk, path); err != nil {
			return nil, err
		}
		st := &shared{
			layout:    LayoutHierarchy,
			mapSync:   o.MapSync,
			par:       par,
			rpar:      rpar,
			hier:      &hierStore{node: n, root: path},
			cache:     newBlockCache(),
			ins:       newInstruments(o, n, nil),
			verify:    o.VerifyReads,
			scrubRate: o.ScrubRate,
			quar:      make(map[poolPMID]struct{}),
		}
		// Hierarchy views are always fallback copies (no mapped block to
		// alias), so the lease map stays empty — but it is initialized, and
		// the gauges bridged, so the view API is uniform across layouts.
		st.viewLeases = make(map[uint64]int)
		st.ins.bridgeCache(st.cache)
		st.ins.bridgeQuarantine(st)
		st.ins.bridgeViews(st)
		installTracer(o, n, st)
		return st, nil
	}

	if o.Pools > 1 {
		return openSharedMulti(c, n, path, o, par, rpar)
	}

	poolSize := o.PoolSize
	if poolSize == 0 {
		poolSize = n.Device.Size() / 4 * 3
	}
	buckets := o.Buckets
	if buckets == 0 {
		buckets = pmdk.DefaultBuckets
	}

	_, statErr := n.FS.Stat(clk, path)
	fresh := statErr != nil
	var pool *pmdk.Pool
	var htID pmdk.PMID
	if fresh {
		f, err := n.FS.Create(clk, path)
		if err != nil {
			return nil, err
		}
		if err := f.Truncate(clk, poolSize); err != nil {
			return nil, err
		}
		m, err := f.Mmap(clk, o.MapSync)
		if err != nil {
			return nil, err
		}
		// Arenas are pinned rather than left to GOMAXPROCS so virtual-time
		// results are host-independent: at least 8 (one per DIMM of the
		// modelled node, the count needed to saturate PMEM), more if the
		// copy engine runs more workers than that.
		po := pmdk.DefaultOptions()
		po.Arenas = 8
		if par > po.Arenas {
			po.Arenas = par
		}
		pool, err = pmdk.Create(clk, m, &po)
		if err != nil {
			return nil, err
		}
		// Pool-format bootstrap: the metadata hashtable is created before any
		// data exists, so this transaction legitimately runs outside the
		// commit engine.
		tx, err := pool.Begin(clk) //commitvet:ignore
		if err != nil {
			return nil, err
		}
		htID, err = pmdk.CreateHashtable(tx, buckets)
		if err != nil {
			tx.Abort()
			return nil, err
		}
		root, _ := pool.Root()
		if err := tx.WriteU64(root, uint64(htID)); err != nil {
			tx.Abort()
			return nil, err
		}
		if err := tx.Commit(); err != nil {
			return nil, err
		}
	} else {
		f, err := n.FS.Open(clk, path)
		if err != nil {
			return nil, err
		}
		m, err := f.Mmap(clk, o.MapSync)
		if err != nil {
			return nil, err
		}
		pool, err = pmdk.Open(clk, m)
		if err != nil {
			return nil, err
		}
		root, _ := pool.Root()
		id, err := pool.ReadU64(clk, root)
		if err != nil {
			return nil, err
		}
		htID = pmdk.PMID(id)
	}
	ht, err := pmdk.OpenHashtable(clk, pool, htID)
	if err != nil {
		return nil, err
	}
	st := &shared{
		layout:    LayoutHashtable,
		mapSync:   o.MapSync,
		staged:    o.StagedSerialization,
		par:       par,
		rpar:      rpar,
		pool:      pool,
		ht:        ht,
		cache:     newBlockCache(),
		ins:       newInstruments(o, n, pool),
		verify:    o.VerifyReads,
		scrubRate: o.ScrubRate,
	}
	return finishHashtableShared(st, o, n, clk)
}

// finishHashtableShared applies the configuration shared by the single- and
// multi-pool hashtable paths: async pipeline resolution, the quarantine
// fail-fast mirror, and the observability bridges.
func finishHashtableShared(st *shared, o *Options, n *node.Node, clk *sim.Clock) (*shared, error) {
	if o.Async {
		window := o.CoalesceWindow
		if window <= 0 {
			window = defaultCoalesceWindow
		}
		inflight := o.MaxInflight
		if inflight <= 0 {
			inflight = defaultInflightWindows * window
		}
		if inflight < window {
			inflight = window
		}
		st.asyncOn = true
		st.asyncWindow = window
		st.asyncInflight = inflight
		st.ins.bridgeAsync(st)
	}
	// Repopulate the quarantine fail-fast mirror from the persistent list, so
	// a reopen after a crash keeps refusing reads of known-bad blocks.
	if err := st.loadQuarantine(clk); err != nil {
		return nil, err
	}
	// Zero-copy view lease state: one deferred-free arena per member pool,
	// index-aligned with pools (view.go).
	st.viewLeases = make(map[uint64]int)
	st.limbos = make([]*pmdk.Limbo, st.npools())
	for i := range st.limbos {
		st.limbos[i] = &pmdk.Limbo{}
	}
	st.ins.bridgeCache(st.cache)
	st.ins.bridgeQuarantine(st)
	st.ins.bridgeViews(st)
	installTracer(o, n, st)
	return st, nil
}

// setID derives the cross-pool commit identifier from the namespace path, so
// every rank and every reopen binds the same member pools together.
func setID(path string) uint64 {
	const (
		fnvOffset = 14695981039346656037
		fnvPrime  = 1099511628211
	)
	h := uint64(fnvOffset)
	for i := 0; i < len(path); i++ {
		h ^= uint64(path[i])
		h *= fnvPrime
	}
	return h
}

// openSharedMulti builds the node-wide state of a sharded namespace: one pool
// (with its own hashtable) per PMEM device, created under the crash-consistent
// prepare/publish protocol of pmdk.CreateSet. A reopen that finds the set
// unpublished — creation crashed before the commit point — re-formats from
// scratch: the namespace never existed, so no data can be lost.
func openSharedMulti(c *mpi.Comm, n *node.Node, path string, o *Options, par, rpar int) (*shared, error) {
	clk := c.Clock()
	npools := o.Pools
	if n.Pools() != npools {
		return nil, fmt.Errorf("core: WithPools(%d) needs a node built with %d PMEM devices, have %d",
			npools, npools, n.Pools())
	}
	buckets := o.Buckets
	if buckets == 0 {
		buckets = pmdk.DefaultBuckets
	}
	po := pmdk.DefaultOptions()
	po.Arenas = 8
	if par > po.Arenas {
		po.Arenas = par
	}
	// initPool bootstraps one freshly formatted member: its metadata
	// hashtable, published through the pool root. It runs under CreateSet's
	// prepare phase, BEFORE the set publishes, so a crash mid-bootstrap
	// leaves an unpublished set that the next open simply re-creates.
	initPool := func(i int, pool *pmdk.Pool) error {
		tx, err := pool.Begin(clk) //commitvet:ignore (pool-format bootstrap)
		if err != nil {
			return err
		}
		htID, err := pmdk.CreateHashtable(tx, buckets)
		if err != nil {
			tx.Abort()
			return err
		}
		root, _ := pool.Root()
		if err := tx.WriteU64(root, uint64(htID)); err != nil {
			tx.Abort()
			return err
		}
		return tx.Commit()
	}
	openMaps := func(create bool) ([]*pmem.Mapping, error) {
		maps := make([]*pmem.Mapping, npools)
		for i := 0; i < npools; i++ {
			fs := n.FSAt(i)
			var f *posixfs.File
			var err error
			if create {
				f, err = fs.Create(clk, path)
				if err != nil {
					return nil, err
				}
				poolSize := o.PoolSize
				if poolSize == 0 {
					poolSize = n.DeviceAt(i).Size() / 4 * 3
				}
				if err := f.Truncate(clk, poolSize); err != nil {
					return nil, err
				}
			} else {
				f, err = fs.Open(clk, path)
				if err != nil {
					return nil, err
				}
			}
			m, err := f.Mmap(clk, o.MapSync)
			if err != nil {
				return nil, err
			}
			maps[i] = m
		}
		return maps, nil
	}

	_, statErr := n.FSAt(0).Stat(clk, path)
	fresh := statErr != nil
	var set *pmdk.PoolSet
	var err error
	if fresh {
		maps, merr := openMaps(true)
		if merr != nil {
			return nil, merr
		}
		set, err = pmdk.CreateSet(clk, setID(path), maps, &po, initPool)
	} else {
		maps, merr := openMaps(false)
		if merr != nil {
			return nil, merr
		}
		set, err = pmdk.OpenSet(clk, maps)
		if errors.Is(err, pmdk.ErrSetUnpublished) {
			// Creation crashed before the publish record: the namespace never
			// existed. Re-format every member in place.
			set, err = pmdk.CreateSet(clk, setID(path), maps, &po, initPool)
		}
	}
	if err != nil {
		return nil, err
	}

	pools := make([]*pmdk.Pool, npools)
	hts := make([]*pmdk.Hashtable, npools)
	for i := 0; i < npools; i++ {
		pools[i] = set.Pool(i)
		root, _ := pools[i].Root()
		id, err := pools[i].ReadU64(clk, root)
		if err != nil {
			return nil, err
		}
		hts[i], err = pmdk.OpenHashtable(clk, pools[i], pmdk.PMID(id))
		if err != nil {
			return nil, fmt.Errorf("core: pool %d hashtable: %w", i, err)
		}
	}
	st := &shared{
		layout:    LayoutHashtable,
		mapSync:   o.MapSync,
		staged:    o.StagedSerialization,
		par:       par,
		rpar:      rpar,
		pool:      pools[0],
		ht:        hts[0],
		pools:     pools,
		hts:       hts,
		cache:     newBlockCache(),
		ins:       newInstruments(o, n, pools[0]),
		verify:    o.VerifyReads,
		scrubRate: o.ScrubRate,
	}
	return finishHashtableShared(st, o, n, clk)
}

// installTracer wires span tracing: the tracer becomes the device's event
// sink, so every persist/fence is attributed to the op active on the issuing
// rank's clock. The sink stays installed until another tracing handle group
// replaces it; events outside any op are counted, not recorded.
func installTracer(o *Options, n *node.Node, st *shared) {
	if !o.Tracing {
		return
	}
	tr := obs.NewTracer(0)
	st.ins.tracer = tr
	// Every device of a multi-pool node feeds the same tracer: the pools
	// share one fault domain and one persist-ordinal space, so their events
	// interleave into one coherent span stream.
	for i := 0; i < n.Pools(); i++ {
		n.DeviceAt(i).SetEventSink(tr)
	}
}

// Munmap closes the handle collectively. The rank's submission queue drains
// first — a closed handle never abandons queued asynchronous writes — and a
// drain failure is reported after the ranks synchronize, so the collective
// still completes on every rank.
func (p *PMEM) Munmap() error {
	var derr error
	if p.async != nil {
		derr = p.async.flushAll(context.Background())
	}
	if err := p.comm.Barrier(); err != nil {
		return err
	}
	// Every outstanding zero-copy view is now stale: the mapping it aliases
	// is gone. Views fail fast with ErrStaleView from here on, and blocks
	// still parked in limbo stay there — recoverable garbage, the same
	// contract as a crash between an unlink and its free (view.go).
	p.st.viewsInvalid.Store(true)
	return derr
}

// Comm returns the communicator the handle was mapped with.
func (p *PMEM) Comm() *mpi.Comm { return p.comm }

// MapSync reports whether the handle runs with MAP_SYNC semantics.
func (p *PMEM) MapSync() bool { return p.st.mapSync }

// CodecName returns the active serializer's name.
func (p *PMEM) CodecName() string { return p.codec.Name() }

func (p *PMEM) varLock(id string) *sync.RWMutex {
	// Load first: LoadOrStore's candidate mutex and boxed key are two heap
	// objects per call, and every read plan — memoized statistics hits
	// included — now takes this lock.
	if l, ok := p.st.varLocks.Load(id); ok {
		return l.(*sync.RWMutex)
	}
	l, _ := p.st.varLocks.LoadOrStore(id, new(sync.RWMutex))
	return l.(*sync.RWMutex)
}

// --- multi-pool placement ---

// npools returns the number of member pools of the namespace (1 for
// single-pool and hierarchy handles).
func (st *shared) npools() int {
	if len(st.pools) < 2 {
		return 1
	}
	return len(st.pools)
}

// poolAt returns the i-th member pool (the one pool for single-pool handles,
// whatever i).
func (st *shared) poolAt(i int) *pmdk.Pool {
	if len(st.pools) < 2 {
		return st.pool
	}
	return st.pools[i]
}

// htAt returns the i-th member pool's metadata hashtable.
func (st *shared) htAt(i int) *pmdk.Hashtable {
	if len(st.hts) < 2 {
		return st.ht
	}
	return st.hts[i]
}

// placementKey reduces an id to its placement key: the "#dims" companion
// follows its base variable so a variable's metadata co-locates, and reserved
// '#'-prefixed keys (the quarantine list) pin to pool 0.
func placementKey(id string) string {
	if n := len(id) - len(DimsSuffix); n > 0 && id[n:] == DimsSuffix {
		id = id[:n]
	}
	return id
}

// homeIdx returns the id's home pool index: the member pool holding its
// metadata entry and its serially stored data blocks. Deterministic FNV-1a
// striping, so every rank and every reopen computes the same placement.
func (st *shared) homeIdx(id string) int {
	n := st.npools()
	if n == 1 {
		return 0
	}
	key := placementKey(id)
	if len(key) > 0 && key[0] == '#' {
		return 0
	}
	const (
		fnvOffset = 14695981039346656037
		fnvPrime  = 1099511628211
	)
	h := uint64(fnvOffset)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= fnvPrime
	}
	return int(h % uint64(n))
}

// Pools returns the number of member pools backing this handle (1 for the
// classic single-pool store and the hierarchy layout).
func (p *PMEM) Pools() int { return p.st.npools() }

// HomePool returns the member pool index the id's metadata and serially
// stored payloads route to. Always 0 on a single-pool handle. The placement
// is deterministic (FNV-1a over the id), so tools like pmemcli can report it
// without touching the medium.
func (p *PMEM) HomePool(id string) int { return p.st.homeIdx(id) }

// homeIdx, poolOf and homeHT are the handle-side routing shorthands.
func (p *PMEM) homeIdx(id string) int      { return p.st.homeIdx(id) }
func (p *PMEM) poolOf(pi uint8) *pmdk.Pool { return p.st.poolAt(int(pi)) }
func (p *PMEM) homeHT(id string) *pmdk.Hashtable {
	return p.st.htAt(p.st.homeIdx(id))
}

// writePort and readPort return the bandwidth port of the pi-th member
// pool's device. Single-pool and hierarchy handles resolve to the machine's
// default device ports, so every pre-existing cost is unchanged; each member
// of a multi-pool namespace has its own dedicated port pair (one DIMM set per
// pool), which is what makes striped aggregate bandwidth scale.
func (p *PMEM) writePort(pi int) *sim.Pool {
	if len(p.st.pools) > 1 {
		return p.st.pools[pi].Mapping().Device().WritePort()
	}
	return p.node.Machine.PMEMWrite
}

func (p *PMEM) readPort(pi int) *sim.Pool {
	if len(p.st.pools) > 1 {
		return p.st.pools[pi].Mapping().Device().ReadPort()
	}
	return p.node.Machine.PMEMRead
}

// chargeStoreBytes accounts moving n encoded bytes into pool pi. On the
// default direct path this is a single serialization pass streaming straight
// into the mapping; under the staging ablation it is a DRAM encode pass
// followed by a separate device copy — the double movement the paper's
// design eliminates.
func (p *PMEM) chargeStoreBytes(pi int, n int64, passes float64) {
	if !p.st.staged {
		p.chargeDirectWrite(pi, n, passes)
		return
	}
	m := p.node.Machine
	cfg := m.Config()
	clk := p.comm.Clock()
	clk.Advance(sim.MoveCost(int64(float64(n)*passes), cfg.SerializeBPS,
		m.Oversub(p.comm.Size()), m.DRAM))
	p.st.poolAt(pi).Mapping().ChargeWrite(clk, n)
}

// chargeDirectWrite accounts a single serialization pass that streams bytes
// straight into pool pi's mapped PMEM: bounded by the per-core encode rate
// and the device write port, plus the MAP_SYNC write-through penalty if
// enabled. This single charge — instead of a DRAM pass followed by a device
// pass — is the heart of the paper's claim.
//
// Codec passes beyond the first (e.g. BP4's min/max characterization) only
// re-read the source data in DRAM; they never touch the device, so their
// cost is CPU/DRAM-bound and charged separately.
func (p *PMEM) chargeDirectWrite(pi int, n int64, passes float64) {
	m := p.node.Machine
	cfg := m.Config()
	clk := p.comm.Clock()
	clk.Advance(cfg.PMEMWriteLatency)
	clk.Advance(sim.MoveCost(n, cfg.SerializeBPS, m.Oversub(p.comm.Size()), p.writePort(pi)))
	if passes > 1 {
		extra := int64(float64(n) * (passes - 1))
		clk.Advance(sim.MoveCost(extra, cfg.SerializeBPS, m.Oversub(p.comm.Size()), m.DRAM))
	}
	if p.st.mapSync {
		lines := (n + sim.CachelineSize - 1) / sim.CachelineSize
		clk.Advance(time.Duration(lines) * cfg.MapSyncLine)
	}
}

// chargeParallelStore accounts one parallel store into pool pi: `workers`
// goroutines each stream a shard of the n encoded bytes straight into mapped
// PMEM. The CPU side scales with the worker count (discounted by the
// oversubscription of ranks*workers total threads) and the device side by the
// port's GroupShare — several concurrent streams lift the single-thread PMEM
// write cap until the rank's slice of the device bandwidth is saturated, the
// behaviour measured by "Persistent Memory I/O Primitives". The MAP_SYNC
// write-through penalty is paid per line but the lines are split across
// workers.
func (p *PMEM) chargeParallelStore(pi int, n int64, passes float64, workers int) {
	p.chargeStripedStore([]int64{n}, []int{pi}, passes, workers)
}

// chargeStripedStore accounts one parallel store striped over several pools:
// perPool[i] encoded bytes stream into pool pis[i], with the worker pool
// split across the stripes in proportion to their bytes. The pools' devices
// operate concurrently, so virtual time advances by the SLOWEST stripe — not
// the sum — which is exactly the aggregate-bandwidth win of a sharded
// namespace (and why Advance-per-pool would model it away). Extra codec
// passes and the MAP_SYNC per-line penalty are charged once over the total,
// split across all workers.
func (p *PMEM) chargeStripedStore(perPool []int64, pis []int, passes float64, workers int) {
	m := p.node.Machine
	cfg := m.Config()
	clk := p.comm.Clock()
	over := m.Oversub(p.comm.Size() * workers)
	var total int64
	for _, n := range perPool {
		total += n
	}
	clk.Advance(cfg.PMEMWriteLatency)
	var slowest time.Duration
	for i, n := range perPool {
		w := stripeWorkers(workers, n, total, len(perPool))
		d := sim.MoveCostParallel(n, cfg.SerializeBPS, over, w, p.writePort(pis[i]))
		if d > slowest {
			slowest = d
		}
	}
	clk.Advance(slowest)
	if passes > 1 {
		extra := int64(float64(total) * (passes - 1))
		clk.Advance(sim.MoveCostParallel(extra, cfg.SerializeBPS, over, workers, m.DRAM))
	}
	if p.st.mapSync {
		lines := (total + sim.CachelineSize - 1) / sim.CachelineSize
		perWorker := (lines + int64(workers) - 1) / int64(workers)
		clk.Advance(time.Duration(perWorker) * cfg.MapSyncLine)
	}
}

// stripeWorkers splits a worker pool across stripes proportionally to bytes:
// a stripe carrying n of total bytes gets its share of the workers, at least
// one. With one stripe it degenerates to the whole pool.
func stripeWorkers(workers int, n, total int64, stripes int) int {
	if stripes <= 1 || total <= 0 {
		return workers
	}
	w := int(float64(workers) * float64(n) / float64(total))
	if w < 1 {
		w = 1
	}
	return w
}

// chargeDirectRead accounts a single deserialization pass streaming from
// pool pi's mapped PMEM into the destination buffer; extra codec passes stay
// in DRAM.
func (p *PMEM) chargeDirectRead(pi int, n int64, passes float64) {
	m := p.node.Machine
	cfg := m.Config()
	clk := p.comm.Clock()
	clk.Advance(cfg.PMEMReadLatency)
	clk.Advance(sim.MoveCost(n, cfg.DeserializeBPS, m.Oversub(p.comm.Size()), p.readPort(pi)))
	if passes > 1 {
		extra := int64(float64(n) * (passes - 1))
		clk.Advance(sim.MoveCost(extra, cfg.DeserializeBPS, m.Oversub(p.comm.Size()), m.DRAM))
	}
	if p.st.mapSync {
		lines := (n + sim.CachelineSize - 1) / sim.CachelineSize
		clk.Advance(time.Duration(lines) * cfg.MapSyncLine)
	}
}

// chargeReadLatency accounts a read that touches a handful of bytes or none:
// opening a zero-copy view (the application's in-place traversal is the read,
// and it happens outside the library at DRAM load granularity — precisely the
// copy elimination the view exists to model) or reading one block's
// characteristics header. One device read latency; no bytes are streamed.
func (p *PMEM) chargeReadLatency() {
	p.comm.Clock().Advance(p.node.Machine.Config().PMEMReadLatency)
}

// chargeStripedRead is the gather-side mirror of chargeStripedStore: per-pool
// byte totals stream out of their devices concurrently and virtual time
// advances by the slowest stripe.
func (p *PMEM) chargeStripedRead(perPool []int64, pis []int, passes float64, workers int) {
	m := p.node.Machine
	cfg := m.Config()
	clk := p.comm.Clock()
	over := m.Oversub(p.comm.Size() * workers)
	var total int64
	for _, n := range perPool {
		total += n
	}
	clk.Advance(cfg.PMEMReadLatency)
	var slowest time.Duration
	for i, n := range perPool {
		w := stripeWorkers(workers, n, total, len(perPool))
		d := sim.MoveCostParallel(n, cfg.DeserializeBPS, over, w, p.readPort(pis[i]))
		if d > slowest {
			slowest = d
		}
	}
	clk.Advance(slowest)
	if passes > 1 {
		extra := int64(float64(total) * (passes - 1))
		clk.Advance(sim.MoveCostParallel(extra, cfg.DeserializeBPS, over, workers, m.DRAM))
	}
	if p.st.mapSync {
		lines := (total + sim.CachelineSize - 1) / sim.CachelineSize
		perWorker := (lines + int64(workers) - 1) / int64(workers)
		clk.Advance(time.Duration(perWorker) * cfg.MapSyncLine)
	}
}

// Alloc declares the final global dimensions of array id (Figure 2's
// pmem.alloc<T>): it stores dims under id+"#dims". Ranks may all call it;
// the first definition wins and later identical definitions are no-ops.
func (p *PMEM) Alloc(id string, dtype serial.DType, gdims []uint64) error {
	p.asyncBarrier()
	done := p.beginOp(opAlloc, id)
	err := p.alloc(id, dtype, gdims)
	done(false, 0, err)
	return err
}

func (p *PMEM) alloc(id string, dtype serial.DType, gdims []uint64) error {
	if len(gdims) == 0 || len(gdims) > serial.MaxDims {
		return fmt.Errorf("core: Alloc(%q) with rank %d: %w", id, len(gdims), ErrOutOfBounds)
	}
	lock := p.varLock(id + DimsSuffix)
	lock.Lock()
	defer lock.Unlock()
	if existing, err := p.loadDimsLocked(id); err == nil {
		if len(existing.dims) != len(gdims) {
			return fmt.Errorf("core: Alloc(%q) conflicts with existing dims %v: %w", id, existing.dims, ErrTypeMismatch)
		}
		for i := range gdims {
			if existing.dims[i] != gdims[i] {
				return fmt.Errorf("core: Alloc(%q) conflicts with existing dims %v: %w", id, existing.dims, ErrTypeMismatch)
			}
		}
		if existing.dtype != dtype {
			return fmt.Errorf("core: Alloc(%q) conflicts with existing type %v: %w",
				id, existing.dtype, ErrTypeMismatch)
		}
		return nil
	}
	rec := encodeDimsRecord(dtype, gdims)
	if err := p.putValue(id+DimsSuffix, rec); err != nil {
		return err
	}
	p.invalidateCache(id + DimsSuffix)
	return nil
}

// dimsRecord is the decoded id+"#dims" entry.
type dimsRecord struct {
	dtype serial.DType
	dims  []uint64
}

func encodeDimsRecord(dtype serial.DType, dims []uint64) []byte {
	buf := make([]byte, 2+8*len(dims))
	buf[0] = byte(dtype)
	buf[1] = byte(len(dims))
	for i, d := range dims {
		binary.LittleEndian.PutUint64(buf[2+8*i:], d)
	}
	return buf
}

func decodeDimsRecord(raw []byte) (dimsRecord, error) {
	if len(raw) < 2 {
		return dimsRecord{}, fmt.Errorf("core: dims record truncated")
	}
	r := dimsRecord{dtype: serial.DType(raw[0])}
	ndims := int(raw[1])
	if len(raw) < 2+8*ndims {
		return dimsRecord{}, fmt.Errorf("core: dims record truncated")
	}
	r.dims = make([]uint64, ndims)
	for i := range r.dims {
		r.dims[i] = binary.LittleEndian.Uint64(raw[2+8*i:])
	}
	return r, nil
}

// LoadDims returns the global dimensions and element type declared for id.
func (p *PMEM) LoadDims(id string) (serial.DType, []uint64, error) {
	rec, err := p.loadDimsLocked(id)
	if err != nil {
		return serial.Invalid, nil, err
	}
	return rec.dtype, rec.dims, nil
}

func (p *PMEM) loadDimsLocked(id string) (dimsRecord, error) {
	raw, ok, err := p.getValue(id + DimsSuffix)
	if err != nil {
		return dimsRecord{}, err
	}
	if !ok {
		return dimsRecord{}, fmt.Errorf("core: %q has no dims (Alloc not called): %w", id, ErrNotFound)
	}
	return decodeDimsRecord(raw)
}
