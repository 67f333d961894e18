package core

import (
	"sort"
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
// Coherence protocol: every id has a version counter. Readers snapshot the
// version, read persistent metadata, and install the decoded entry only if
// the version is unchanged — a writer that republished in between bumped it
// (under the id's varLock, strictly AFTER its putValue), so a racing reader
// can never install a stale index over fresh data. Entries are immutable
// after install; refinements (lazily computed per-block statistics) install a
// new entry under the same version discipline.
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
	vers    map[string]uint64

	hits          atomic.Int64
	misses        atomic.Int64
	invalidations atomic.Int64
}

func newBlockCache() *blockCache {
	return &blockCache{
		entries: make(map[string]*cacheEntry),
		vers:    make(map[string]uint64),
	}
}

// lookup returns the cached entry for id (counting a hit or miss) together
// with the id's current version, to be passed back to install.
func (bc *blockCache) lookup(id string) (*cacheEntry, uint64, bool) {
	bc.mu.Lock()
	e, ok := bc.entries[id]
	ver := bc.vers[id]
	bc.mu.Unlock()
	if ok {
		bc.hits.Add(1)
	} else {
		bc.misses.Add(1)
	}
	return e, ver, ok
}

// install publishes an entry built from metadata read while the id was at
// version ver. It refuses (returning false) if a writer invalidated the id
// in between — the entry would index stale metadata.
func (bc *blockCache) install(id string, e *cacheEntry, ver uint64) bool {
	bc.mu.Lock()
	defer bc.mu.Unlock()
	if bc.vers[id] != ver {
		return false
	}
	bc.entries[id] = e
	return true
}

// invalidate drops id's entry and bumps its version. Writers call it under
// the id's varLock, after republishing persistent metadata.
func (bc *blockCache) invalidate(id string) {
	bc.mu.Lock()
	bc.vers[id]++
	delete(bc.entries, id)
	bc.mu.Unlock()
	bc.invalidations.Add(1)
}

// invalidateCache drops the DRAM index of the base variable behind key: a
// mutation of either the id itself or its "#dims" companion invalidates the
// one combined entry.
func (p *PMEM) invalidateCache(key string) {
	if p.st.cache == nil {
		return
	}
	if n := len(key) - len(DimsSuffix); n > 0 && key[n:] == DimsSuffix {
		key = key[:n]
	}
	p.st.cache.invalidate(key)
}

// blockIndex returns id's DRAM index, building it from persistent metadata
// on a miss. The build reads the dims record and block list exactly the way
// the uncached path did (same metadata charges); a hit touches neither the
// device nor the clock. Returns the entry and the version it was read at.
//
// The caller holds id's read lock — the read engine is the only caller and
// holds it across resolve AND execution — so the block-list read below is
// covered (a writer's republish frees the previous metadata record) and must
// not re-acquire it: a recursive RLock can deadlock against a queued writer.
func (p *PMEM) blockIndex(id string) (*cacheEntry, uint64, error) {
	e, ver, ok := p.st.cache.lookup(id)
	if ok {
		return e, ver, nil
	}
	// Miss: ver was snapshotted before the metadata reads below, so a
	// concurrent republish makes the install a no-op rather than a stale hit.
	dl := p.varLock(id + DimsSuffix)
	dl.RLock()
	rec, err := p.loadDimsLocked(id)
	dl.RUnlock()
	if err != nil {
		return nil, 0, err
	}
	blocks, hasBlocks, err := p.loadBlockList(id)
	if err != nil {
		return nil, 0, err
	}
	e = &cacheEntry{
		dims:      rec,
		blocks:    blocks,
		hasBlocks: hasBlocks,
		byStart:   sortByStart(blocks),
	}
	p.st.cache.install(id, e, ver)
	return e, ver, nil
}

// sortByStart builds the sorted extent index: block indices ordered by dim-0
// start offset (ties by list order, keeping the sort stable w.r.t. publish
// order).
func sortByStart(blocks []blockRec) []int {
	idx := make([]int, len(blocks))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		ba, bb := blocks[idx[a]], blocks[idx[b]]
		if len(ba.offs) == 0 || len(bb.offs) == 0 {
			return false
		}
		return ba.offs[0] < bb.offs[0]
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
	out := make([]BlockStats, len(stats))
	for i, s := range stats {
		out[i] = s
		out[i].Offs = append([]uint64(nil), s.Offs...)
		out[i].Counts = append([]uint64(nil), s.Counts...)
	}
	return out
}
