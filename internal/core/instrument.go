package core

import (
	"pmemcpy/internal/node"
	"pmemcpy/internal/obs"
	"pmemcpy/internal/pmdk"
	"pmemcpy/internal/pmem"
	"pmemcpy/internal/sim"
)

// Observability wiring. Every handle group (one Mmap collective) owns an
// obs.Registry holding three families of metrics:
//
//   - op counters (count, error count, bytes) per API operation and path
//     (serial vs parallel): plain atomics, always on;
//   - op latency and shard/queue histograms in virtual ns: recorded only when
//     Options.Metrics is set;
//   - bridge series (CounterFunc/GaugeFunc) reading counters that live in
//     another package — the pmem device, the pmdk allocator — or state the
//     engines keep for themselves — quarantine, lease and queue gauges — at
//     snapshot time, so nothing is double-counted.
//
// The registry is the one home of every core counter and Metrics() the one
// way to read it: a counter core keeps for no other reason is an obs.Counter
// here, never an atomic beside the registry.
//
// None of it touches the virtual clock: observing a store can never change
// its modelled latency, so virtual-time results are bit-identical with
// metrics on or off (E14 measures the host-side wall-clock cost instead).
//
// The device bridge series report device-lifetime totals: a node hosting two
// handle groups (e.g. a differential test driving two libraries) sees the
// shared device's combined counts in both snapshots.

// op indices for the instrument table.
const (
	opAlloc = iota
	opDelete
	opStoreDatum
	opLoadDatum
	opStoreBlock
	opLoadBlock
	opLoadView
	nOps
)

var opNames = [nOps]string{
	opAlloc:      "alloc",
	opDelete:     "delete",
	opStoreDatum: "store_datum",
	opLoadDatum:  "load_datum",
	opStoreBlock: "store_block",
	opLoadBlock:  "load_block",
	opLoadView:   "load_view",
}

// pathSerial/pathParallel index the per-path instrument slots.
const (
	pathSerial = iota
	pathParallel
	nPaths
)

var pathNames = [nPaths]string{"serial", "parallel"}

// opInstr is one (op, path) series set.
type opInstr struct {
	count *obs.Counter
	errs  *obs.Counter
	bytes *obs.Counter
	lat   *obs.Histogram
}

// instruments is the handle group's observability state, shared by every
// rank's handle like the pool itself.
type instruments struct {
	reg     *obs.Registry
	enabled bool // histograms on (Options.Metrics)
	tracer  *obs.Tracer

	ops [nOps][nPaths]*opInstr

	// Parallel-engine shape histograms (imbalance is read off the shard-bytes
	// spread; queue depth is the gather plan's job count per parallel load):
	// their counts are the shards written and the gather jobs run.
	shardBytes     *obs.Histogram
	gatherJobBytes *obs.Histogram
	gatherDepth    *obs.Histogram

	// Integrity series (integrity.go). Counters are always on like the op
	// counters; the scrub latency histogram fills on every pass — Scrub is an
	// explicit maintenance op with clock access already, so it is not gated
	// behind Options.Metrics the way hot-path op latencies are.
	verifyBlocks *obs.Counter
	verifyFails  *obs.Counter
	scrubBlocks  *obs.Counter
	scrubCorrupt *obs.Counter
	scrubPasses  *obs.Counter
	scrubLat     *obs.Histogram

	// Async pipeline series (async.go). Counters are always on — the
	// coalescing ratio E16 gates on is submitted/publishes — while the shape
	// and batch-latency histograms follow the Options.Metrics switch.
	asyncSubmitted    *obs.Counter
	asyncBatches      *obs.Counter
	asyncPublishes    *obs.Counter
	asyncCoalesced    *obs.Counter
	asyncBackpressure *obs.Counter
	asyncBatchOps     *obs.Histogram
	asyncBatchBytes   *obs.Histogram
	asyncBatchLat     *obs.Histogram

	// Zero-copy view series (view.go). The zero_copy/fallback pair makes the
	// aliasing ratio observable (E18 reports it); deferred/reclaimed count
	// blocks through the limbo lists; leaked counts views collected unclosed.
	viewZero      *obs.Counter
	viewFallback  *obs.Counter
	viewDeferred  *obs.Counter
	viewReclaimed *obs.Counter
	viewLeaked    *obs.Counter

	// The DRAM block index (meta.go): lookups served from DRAM, lookups that
	// built it, and writer-side drops.
	cacheHits          *obs.Counter
	cacheMisses        *obs.Counter
	cacheInvalidations *obs.Counter

	// What a whole-value publish reclaimed (writeplan.go): the block the old
	// record pointed at, freed in the publishing transaction or parked.
	supersededBlocks *obs.Counter
	supersededBytes  *obs.Counter
	// Whole values published in their record, with no block (writeplan.go).
	inlineValues *obs.Counter
}

// newInstruments builds the registry for one handle group over its finished
// shared state, and — when the group traces — the tracer.
func newInstruments(st *shared, n *node.Node) *instruments {
	in := &instruments{
		reg:     obs.NewRegistry(),
		enabled: st.opt.Metrics,
	}
	reg := in.reg
	for op := 0; op < nOps; op++ {
		for pa := 0; pa < nPaths; pa++ {
			// Only block/datum stores, block loads, and view loads (whose
			// fallback gathers can run parallel) have a parallel path;
			// registering the serial slot alone keeps the exposition free of
			// always-zero series.
			if pa == pathParallel &&
				op != opStoreDatum && op != opStoreBlock && op != opLoadBlock && op != opLoadView {
				in.ops[op][pa] = in.ops[op][pathSerial]
				continue
			}
			labels := []obs.Label{
				{Key: "op", Value: opNames[op]},
				{Key: "path", Value: pathNames[pa]},
			}
			in.ops[op][pa] = &opInstr{
				count: reg.Counter("pmemcpy_op_total", "API operations", labels...),
				errs:  reg.Counter("pmemcpy_op_errors_total", "API operations that returned an error", labels...),
				bytes: reg.Counter("pmemcpy_op_bytes_total", "payload bytes moved by API operations", labels...),
				lat:   reg.Histogram("pmemcpy_op_latency_ns", "op latency in virtual ns (power-of-two buckets)", labels...),
			}
		}
	}
	in.shardBytes = reg.Histogram("pmemcpy_shard_bytes",
		"encoded bytes per shard written by the parallel store engine")
	in.gatherJobBytes = reg.Histogram("pmemcpy_gather_job_bytes",
		"bytes per copy job executed by the parallel gather engine")
	in.gatherDepth = reg.Histogram("pmemcpy_gather_queue_depth",
		"jobs queued per parallel gather (worker-pool depth)")

	in.verifyBlocks = reg.Counter("pmemcpy_verified_blocks_total",
		"blocks whose CRC32C was recomputed by a verified read")
	in.verifyFails = reg.Counter("pmemcpy_verify_failures_total",
		"verified reads that surfaced ErrCorrupt on a CRC mismatch")
	in.scrubBlocks = reg.Counter("pmemcpy_scrub_blocks_total",
		"blocks verified by the scrubber")
	in.scrubCorrupt = reg.Counter("pmemcpy_scrub_corruptions_total",
		"corrupt blocks found (and quarantined) by the scrubber")
	in.scrubPasses = reg.Counter("pmemcpy_scrub_passes_total",
		"completed scrub passes")
	in.scrubLat = reg.Histogram("pmemcpy_scrub_latency_ns",
		"virtual ns consumed per scrub pass (read cost plus rate pacing)")

	in.asyncSubmitted = reg.Counter("pmemcpy_async_submitted_total",
		"ops submitted to the asynchronous pipeline")
	in.asyncBatches = reg.Counter("pmemcpy_async_batches_total",
		"batches committed by the asynchronous pipeline")
	in.asyncPublishes = reg.Counter("pmemcpy_async_publishes_total",
		"metadata publishes issued by async group commits (coalescing ratio = submitted/publishes)")
	in.asyncCoalesced = reg.Counter("pmemcpy_async_coalesced_total",
		"submissions absorbed into an adjacent submission's block by coalescing")
	in.asyncBackpressure = reg.Counter("pmemcpy_async_backpressure_total",
		"submissions that stalled on the in-flight bound and committed a batch inline")
	in.asyncBatchOps = reg.Histogram("pmemcpy_async_batch_ops",
		"submissions per committed async batch")
	in.asyncBatchBytes = reg.Histogram("pmemcpy_async_batch_bytes",
		"encoded bytes per block written by async group commits")
	in.asyncBatchLat = reg.Histogram("pmemcpy_async_batch_latency_ns",
		"virtual ns per committed async batch")

	in.viewZero = reg.Counter("pmemcpy_view_zero_copy_total",
		"view loads served zero-copy (aliasing mapped pool bytes)")
	in.viewFallback = reg.Counter("pmemcpy_view_fallback_total",
		"view loads served by the copying fallback planner")
	in.viewDeferred = reg.Counter("pmemcpy_view_deferred_frees_total",
		"blocks parked on the limbo lists because view leases were open")
	in.viewReclaimed = reg.Counter("pmemcpy_view_reclaimed_total",
		"limbo blocks freed after their lease epoch drained")
	in.viewLeaked = reg.Counter("pmemcpy_view_leaked_total",
		"views garbage-collected without Close (their leases pin limbo forever)")

	in.cacheHits = reg.Counter("pmemcpy_cache_hits_total", "block-index cache hits")
	in.cacheMisses = reg.Counter("pmemcpy_cache_misses_total", "block-index cache misses")
	in.cacheInvalidations = reg.Counter("pmemcpy_cache_invalidations_total", "block-index cache invalidations")

	in.supersededBlocks = reg.Counter("pmemcpy_superseded_blocks_total",
		"blocks an overwrite reclaimed with its publish: a replaced record's, or listed blocks a new block contains (freed in the transaction, or parked under a view lease)")
	in.supersededBytes = reg.Counter("pmemcpy_superseded_bytes_total",
		"encoded payload bytes of the blocks overwrites reclaimed")
	in.inlineValues = reg.Counter("pmemcpy_values_inline_total",
		"whole values published inline in their metadata record (no data block)")

	// The device and allocator bridge series sum over every member of the
	// namespace. (A hierarchy handle has the one device and no pool.)
	devSum := func(f func(pmem.Counters) int64) func() int64 {
		return func() (total int64) {
			for i := range st.pools {
				total += f(n.DeviceAt(i).Counters())
			}
			return total
		}
	}
	reg.CounterFunc("pmemcpy_device_persists_total", "successful device persists",
		devSum(func(c pmem.Counters) int64 { return c.Persists }))
	reg.CounterFunc("pmemcpy_device_persisted_bytes_total", "bytes covered by persists",
		devSum(func(c pmem.Counters) int64 { return c.PersistedBytes }))
	// The engines charge payload moves as sim DAX moves of their own, around the
	// device wrappers that count, so these two see metadata and kernel-path
	// traffic only (DESIGN §5).
	reg.CounterFunc("pmemcpy_device_reads_total",
		"charged device read accesses — one read latency each, whatever their length: Persists' twin on the read side",
		devSum(func(c pmem.Counters) int64 { return c.Reads }))
	reg.CounterFunc("pmemcpy_device_read_bytes_total",
		"metadata and kernel-path bytes charged through the device read port; engine payload bytes are pmemcpy_op_bytes_total (DESIGN §5)",
		devSum(func(c pmem.Counters) int64 { return c.ReadBytes }))
	reg.CounterFunc("pmemcpy_device_written_bytes_total",
		"metadata and kernel-path bytes charged through the device write port; engine payload bytes are pmemcpy_op_bytes_total (DESIGN §5)",
		devSum(func(c pmem.Counters) int64 { return c.WrittenBytes }))
	// Injection counters live in the fault domain the member devices share,
	// so device 0 already reports the namespace's totals.
	reg.CounterFunc("pmemcpy_device_persist_retries_total", "transient persist failures absorbed by retry/backoff",
		n.Device.PersistRetries)
	reg.CounterFunc("pmemcpy_device_media_failures_total", "persists escalated to ErrMedia",
		n.Device.MediaFailures)

	if st.lay.pooled() {
		poolSum := func(f func(pmdk.Stats) int64) func() int64 {
			return func() (total int64) {
				for _, pool := range st.pools {
					total += f(pool.Stats())
				}
				return total
			}
		}
		reg.CounterFunc("pmemcpy_alloc_allocs_total", "allocator blocks handed out",
			poolSum(func(s pmdk.Stats) int64 { return s.Allocs }))
		reg.CounterFunc("pmemcpy_alloc_frees_total", "allocator blocks returned",
			poolSum(func(s pmdk.Stats) int64 { return s.Frees }))
		reg.CounterFunc("pmemcpy_alloc_alloc_bytes_total", "block bytes handed out (headers included)",
			poolSum(func(s pmdk.Stats) int64 { return s.AllocBytes }))
		reg.CounterFunc("pmemcpy_alloc_free_bytes_total", "block bytes returned via Free",
			poolSum(func(s pmdk.Stats) int64 { return s.FreeBytes }))
		reg.CounterFunc("pmemcpy_alloc_extents_total", "extents reserved off the shared brk",
			poolSum(func(s pmdk.Stats) int64 { return s.Extents }))
		reg.CounterFunc("pmemcpy_alloc_extent_bytes_total", "heap bytes reserved off the brk",
			poolSum(func(s pmdk.Stats) int64 { return s.ExtentBytes }))
		reg.GaugeFunc("pmemcpy_alloc_live_bytes", "allocated minus freed block bytes (fragmentation = 1 - live/extent)",
			poolSum(func(s pmdk.Stats) int64 { return s.AllocBytes - s.FreeBytes }))
		reg.CounterFunc("pmemcpy_alloc_transactions_total", "committed transactions",
			poolSum(func(s pmdk.Stats) int64 { return s.Transactions }))
		reg.CounterFunc("pmemcpy_alloc_aborts_total", "aborted transactions",
			poolSum(func(s pmdk.Stats) int64 { return s.Aborts }))
		reg.CounterFunc("pmemcpy_alloc_recovered_total", "transactions rolled back by recovery at pool open",
			poolSum(func(s pmdk.Stats) int64 { return s.Recovered }))
		reg.CounterFunc("pmemcpy_alloc_arena_steals_total", "allocations served by a non-home arena",
			poolSum(func(s pmdk.Stats) int64 { return s.ArenaSteals }))
		// Entries per transaction is undo_entries / alloc_transactions.
		reg.CounterFunc("pmemcpy_tx_undo_entries_total", "undo-log entries persisted (one barrier each)",
			poolSum(func(s pmdk.Stats) int64 { return s.UndoEntries }))
		reg.CounterFunc("pmemcpy_tx_undo_bytes_total", "lane bytes written as undo entries (headers and padding included)",
			poolSum(func(s pmdk.Stats) int64 { return s.UndoBytes }))
		reg.CounterFunc("pmemcpy_tx_undo_covered_total", "undo-log Adds skipped because their transaction had already pre-imaged the range",
			poolSum(func(s pmdk.Stats) int64 { return s.UndoCovered }))
		// Which form each metadata publish took (pmdk.Update.Commit).
		reg.CounterFunc("pmemcpy_ht_updates_in_place_total", "records of unchanged length rewritten in place under one undo entry",
			poolSum(func(s pmdk.Stats) int64 { return s.HTInPlace }))
		reg.CounterFunc("pmemcpy_ht_updates_relinked_total", "records moved to a new value block (allocate, swing vlen|value, free old)",
			poolSum(func(s pmdk.Stats) int64 { return s.HTRelinked }))
		reg.CounterFunc("pmemcpy_ht_updates_inserted_total", "records published under a new key",
			poolSum(func(s pmdk.Stats) int64 { return s.HTInserted }))
	}

	reg.GaugeFunc("pmemcpy_quarantined_blocks", "blocks currently on the quarantine list",
		st.quarLen.Load)
	reg.GaugeFunc("pmemcpy_view_active_leases", "zero-copy view leases currently open",
		st.viewActive.Load)
	reg.GaugeFunc("pmemcpy_view_limbo_blocks", "blocks parked on the deferred-free limbo lists",
		st.limboLen.Load)
	if st.opt.Async {
		// The gauge aggregates every rank's queue.
		reg.GaugeFunc("pmemcpy_async_queue_depth", "ops queued on the async submission queues",
			st.asyncDepth.Load)
	}

	if st.opt.Tracing {
		// The tracer becomes the device's event sink, so every persist is
		// attributed to the op active on the issuing rank's clock. The sink
		// stays installed until Munmap removes it or another tracing handle
		// group replaces it; events outside any op are counted, not recorded.
		// Every device of a multi-pool node feeds the same tracer: the pools
		// share one fault domain and one persist-ordinal space, so their
		// events interleave into one coherent span stream.
		in.tracer = obs.NewTracer(0)
		for i := 0; i < n.Pools(); i++ {
			n.DeviceAt(i).SetEventSink(in.tracer)
		}
	}
	return in
}

// opSpan is one instrumented API call in flight on the calling rank: what
// beginOp started and done finishes. It is a value, not a closure, so
// instrumenting an op puts nothing on the Go heap.
type opSpan struct {
	in    *instruments
	clk   *sim.Clock
	op    int
	start int64
}

// beginOp opens instrumentation for one API call on the calling rank. The
// cheap path (metrics and tracing off) is two branch checks here plus the
// atomic counter adds in done.
func (p *PMEM) beginOp(op int, id string) opSpan {
	s := opSpan{in: p.st.ins, clk: p.comm.Clock(), op: op}
	if s.in.enabled {
		s.start = int64(s.clk.Now())
	}
	if s.in.tracer != nil {
		s.in.tracer.StartOp(s.clk, opNames[op], id, p.comm.Rank())
	}
	return s
}

// done finishes the op: parallel selects the path label, bytes is the payload
// moved (0 when not meaningful), err the op's result.
func (s opSpan) done(parallel bool, bytes int64, err error) {
	in := s.in
	if in.tracer != nil {
		in.tracer.EndOp(s.clk, err)
	}
	pa := pathSerial
	if parallel {
		pa = pathParallel
	}
	oi := in.ops[s.op][pa]
	oi.count.Inc()
	oi.bytes.Add(bytes)
	if err != nil {
		oi.errs.Inc()
	}
	if in.enabled {
		oi.lat.Observe(int64(s.clk.Now()) - s.start)
	}
}

// Metrics returns a point-in-time snapshot of every metric series of this
// handle group: op counters and latency histograms, parallel-engine shape
// histograms, and the device/allocator/cache bridge series. Counters are
// always live; histograms fill only when the handle was mapped WithMetrics.
// Taking a snapshot never advances virtual time.
func (p *PMEM) Metrics() obs.Snapshot {
	return p.st.ins.reg.Snapshot()
}

// TraceSpans returns the completed op spans recorded so far (nil when the
// handle was not mapped WithTracing). Dump them with obs.WriteTraceJSON or
// obs.WriteChromeTrace.
func (p *PMEM) TraceSpans() []obs.Span {
	if p.st.ins.tracer == nil {
		return nil
	}
	return p.st.ins.tracer.Spans()
}

var _ pmem.EventSink = (*obs.Tracer)(nil)
