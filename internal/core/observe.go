package core

// StoreStats is an observability snapshot of a store, surfaced by pmemcli.
type StoreStats struct {
	// Layout is the store's data layout.
	Layout Layout
	// Keys is the number of metadata entries (including "#dims" companions).
	Keys int
	// HeapUsed is the number of bump-allocated pool bytes (hashtable layout
	// only; freed blocks are reusable but still counted).
	HeapUsed int64
	// Allocator/transaction counters (hashtable layout only).
	Allocs, Frees, Transactions, Aborts, Recovered int64
	// Arenas is the pool's allocator arena count (hashtable layout only).
	Arenas int
	// ArenaSteals counts allocations that fell back to a non-home arena.
	ArenaSteals int64
	// Parallelism is the configured copy-engine worker count.
	Parallelism int
	// ParallelStores counts stores that took the sharded parallel path;
	// ParallelBlocks counts the shard blocks those stores wrote.
	ParallelStores, ParallelBlocks int64
	// ReadParallelism is the configured gather-engine worker count.
	ReadParallelism int
	// ParallelReads counts loads that took the parallel gather path;
	// ParallelReadJobs counts the copy jobs those loads executed.
	ParallelReads, ParallelReadJobs int64
	// DRAM block-index cache counters: CacheHits/CacheMisses count index
	// lookups served from / built into DRAM; CacheInvalidations counts
	// writer-side drops (StoreBlock, Delete, Compact, Alloc republish).
	CacheHits, CacheMisses, CacheInvalidations int64
}

// Stats returns a snapshot of the store's metadata and allocator state.
func (p *PMEM) Stats() (StoreStats, error) {
	keys, err := p.Keys()
	if err != nil {
		return StoreStats{}, err
	}
	st := StoreStats{
		Layout:           p.st.opt.Layout,
		Keys:             len(keys),
		Parallelism:      p.st.opt.Parallelism,
		ParallelStores:   p.st.parallelStores.Load(),
		ParallelBlocks:   p.st.parallelBlocks.Load(),
		ReadParallelism:  p.st.opt.ReadParallelism,
		ParallelReads:    p.st.parallelReads.Load(),
		ParallelReadJobs: p.st.parallelReadJobs.Load(),

		CacheHits:          p.st.cacheHits.Load(),
		CacheMisses:        p.st.cacheMisses.Load(),
		CacheInvalidations: p.st.cacheInvalidations.Load(),
	}
	if !p.st.lay.caps().pool {
		return st, nil
	}
	// On a sharded namespace, heap and transaction statistics aggregate over
	// every member pool.
	for pi := 0; pi < len(p.st.pools); pi++ {
		pool := p.st.pools[pi]
		used, err := pool.HeapUsed(p.comm.Clock())
		if err != nil {
			return StoreStats{}, err
		}
		ps := pool.Stats()
		st.HeapUsed += used
		st.Allocs += ps.Allocs
		st.Frees += ps.Frees
		st.Transactions += ps.Transactions
		st.Aborts += ps.Aborts
		st.Recovered += ps.Recovered
		st.Arenas += pool.Arenas()
		st.ArenaSteals += ps.ArenaSteals
	}
	return st, nil
}
