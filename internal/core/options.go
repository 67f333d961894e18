package core

// MmapOption configures Mmap. The functional options below are the only
// configuration surface: each touches one field, and options apply in
// argument order. (The v1 pass-a-*Options shim was removed in v2 — it
// overwrote every field, so it could not compose with options placed before
// it; build an Options value and use the With* equivalents instead.)
type MmapOption interface {
	ApplyMmapOption(*Options)
}

// optionsOption adapts a whole Options value into an MmapOption for internal
// callers that resolve a complete configuration before mapping (Library,
// explorer scripts). Unlike the removed public shim it is applied first and
// deliberately unexported: the public surface composes field-wise options.
type optionsOption Options

func (o optionsOption) ApplyMmapOption(dst *Options) { *dst = Options(o) }

// mmapOptionFunc adapts a field mutator into an MmapOption.
type mmapOptionFunc func(*Options)

func (f mmapOptionFunc) ApplyMmapOption(dst *Options) { f(dst) }

// WithCodec selects the serializer ("bp4", "flat", "cbin", "raw").
func WithCodec(name string) MmapOption {
	return mmapOptionFunc(func(o *Options) { o.Codec = name })
}

// WithLayout selects the data layout.
func WithLayout(l Layout) MmapOption {
	return mmapOptionFunc(func(o *Options) { o.Layout = l })
}

// WithMapSync enables MAP_SYNC semantics on the mapping (PMCPY-B).
func WithMapSync() MmapOption {
	return mmapOptionFunc(func(o *Options) { o.MapSync = true })
}

// WithPoolSize sets the pool file size for the hashtable layout.
func WithPoolSize(n int64) MmapOption {
	return mmapOptionFunc(func(o *Options) { o.PoolSize = n })
}

// WithStagedSerialization enables the staging ablation (serialize into DRAM,
// then copy to PMEM).
func WithStagedSerialization() MmapOption {
	return mmapOptionFunc(func(o *Options) { o.StagedSerialization = true })
}

// WithParallelism sets the per-rank copy-engine worker count for both the
// write and (absent WithReadParallelism) the read path.
func WithParallelism(k int) MmapOption {
	return mmapOptionFunc(func(o *Options) { o.Parallelism = k })
}

// WithReadParallelism overrides the gather (read) engine's worker count
// independently of the write engine's.
func WithReadParallelism(k int) MmapOption {
	return mmapOptionFunc(func(o *Options) { o.ReadParallelism = k })
}

// WithMetrics enables latency/shape histogram recording for this handle.
// Operation, device, allocator, and cache counters are always on; histograms
// (which read the virtual clock per operation) are opt-in via this option.
func WithMetrics() MmapOption {
	return mmapOptionFunc(func(o *Options) { o.Metrics = true })
}

// WithTracing enables span-style operation tracing: every API call opens a
// span, and the device's persist/fence trace points nest under the call that
// triggered them. Spans are read back with TraceSpans.
func WithTracing() MmapOption {
	return mmapOptionFunc(func(o *Options) { o.Tracing = true })
}

// WithVerifyReads selects the read-path CRC verification mode: VerifyOff
// (the default), VerifySampled (every k-th load fully verified), or
// VerifyFull (every gathered block checked on every load). Verification
// never advances the virtual clock, so virtual-time results are identical
// across modes; E15 pins the host-side wall cost.
func WithVerifyReads(m VerifyMode) MmapOption {
	return mmapOptionFunc(func(o *Options) { o.VerifyReads = m })
}

// WithScrubber rate-limits Scrub at bytesPerSec bytes per virtual second:
// each pass paces itself against the virtual clock so the sweep never
// outruns the configured rate (0 = unpaced).
func WithScrubber(bytesPerSec int64) MmapOption {
	return mmapOptionFunc(func(o *Options) { o.ScrubRate = bytesPerSec })
}

// WithAsync enables the asynchronous submission pipeline: the *Async entry
// points queue ops and return Futures, and queued stores group-commit in
// batches (one transaction and one metadata publish per batch, adjacent
// same-id sub-stores coalesced into single blocks under identity codecs).
// Hashtable layout only; under the hierarchy layout the *Async calls run
// eagerly. Tune with WithCoalesceWindow.
func WithAsync() MmapOption {
	return mmapOptionFunc(func(o *Options) { o.Async = true })
}

// WithCoalesceWindow sets how many queued submissions seal a batch for group
// commit (0 = default 32). Larger windows amortize more transaction, persist,
// and publish cost per op but delay completion of queued Futures. The queue
// holds at most 8 windows: past that, submitting stalls and commits the oldest
// batch inline (backpressure).
func WithCoalesceWindow(n int) MmapOption {
	return mmapOptionFunc(func(o *Options) { o.CoalesceWindow = n })
}
