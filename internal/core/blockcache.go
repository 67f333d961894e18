package core

import (
	"cmp"
	"slices"
	"sync"
	"sync/atomic"
)

// DRAM block-index cache. Persistent metadata — the id+"#dims" record and the
// variable's block list — lives in the PMEM hashtable, so before this cache
// every LoadSub, MinMax and FindBlocks re-read and re-decoded it from the
// device. Blizzard (Fernando et al.) shows the fast path of a persistent
// structure wants a coherent DRAM-side index over it: build it lazily on the
// first read, serve repeat reads from DRAM, and invalidate it precisely when
// a writer republishes the persistent truth.
//
// Coherence protocol: a variable has ONE lock (varLock, keyed by placement
// key, so the id and its "#dims" companion share it). Every writer republishes
// and then invalidates under its write side; the read engine looks up, builds
// and installs — and memoizes statistics — under its read side. No republish
// can fall between a reader's metadata reads and its install, so an installed
// entry is never stale and the cache needs no versions. Entries are immutable
// after install; refinements (lazily computed per-block statistics) install a
// new entry.
//
// What is never cached: the hierarchy layout (metadata are files, reads go
// through the FS model), raw metadata values (scalars, strings, structs),
// and negative lookups. Crash recovery needs no protocol: handles open at
// crash time are dead by contract, and a re-Mmap starts an empty cache.

// cacheEntry is one id's DRAM-resident index: decoded dims, the decoded
// block list in publish order (later blocks shadow earlier ones), a
// start-sorted extent index over it, and lazily attached per-block
// statistics. Entries are immutable once installed.
type cacheEntry struct {
	dims      dimsRecord
	blocks    []blockRec
	hasBlocks bool
	// byStart holds indices into blocks sorted by dim-0 start offset, the
	// sorted extent index the gather planner searches instead of scanning
	// the whole list.
	byStart []int
	// stats is BlockStatsOf's result, nil until computed; stats[i]
	// describes blocks[i].
	stats []BlockStats
}

// blockCache is the per-handle-group (one Mmap collective) index cache.
type blockCache struct {
	mu      sync.Mutex
	entries map[string]*cacheEntry

	hits          atomic.Int64
	misses        atomic.Int64
	invalidations atomic.Int64
}

func newBlockCache() *blockCache {
	return &blockCache{entries: make(map[string]*cacheEntry)}
}

// lookup returns the cached entry for id, counting a hit or miss.
func (bc *blockCache) lookup(id string) (*cacheEntry, bool) {
	bc.mu.Lock()
	e, ok := bc.entries[id]
	bc.mu.Unlock()
	if ok {
		bc.hits.Add(1)
	} else {
		bc.misses.Add(1)
	}
	return e, ok
}

// install publishes an entry built from metadata read under the id's read
// lock, which the caller still holds.
func (bc *blockCache) install(id string, e *cacheEntry) {
	bc.mu.Lock()
	bc.entries[id] = e
	bc.mu.Unlock()
}

// invalidate drops id's entry. Writers call it under the id's write lock,
// after republishing persistent metadata.
func (bc *blockCache) invalidate(id string) {
	bc.mu.Lock()
	delete(bc.entries, id)
	bc.mu.Unlock()
	bc.invalidations.Add(1)
}

// sortByStart builds the sorted extent index: block indices ordered by dim-0
// start offset (ties by list order, keeping the sort stable w.r.t. publish
// order).
func sortByStart(blocks []blockRec) []int {
	idx := make([]int, len(blocks))
	for i := range idx {
		idx[i] = i
	}
	slices.SortStableFunc(idx, func(a, b int) int {
		ba, bb := &blocks[a], &blocks[b]
		if len(ba.offs) == 0 || len(bb.offs) == 0 {
			return 0
		}
		return cmp.Compare(ba.offs[0], bb.offs[0])
	})
	return idx
}

// withStats returns a copy of e with stats attached (entries are immutable,
// so refinement installs a fresh entry).
func (e *cacheEntry) withStats(stats []BlockStats) *cacheEntry {
	c := *e
	c.stats = stats
	return &c
}

// copyStats deep-copies cached BlockStats so callers cannot mutate the
// shared cache entry through the returned slices.
func copyStats(stats []BlockStats) []BlockStats {
	if stats == nil {
		return nil
	}
	out := make([]BlockStats, len(stats))
	for i, s := range stats {
		out[i] = s
		out[i].Offs = append([]uint64(nil), s.Offs...)
		out[i].Counts = append([]uint64(nil), s.Counts...)
	}
	return out
}
