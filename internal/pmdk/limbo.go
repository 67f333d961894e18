package pmdk

import (
	"sync"
)

// Limbo is a deferred-free arena for one pool: blocks that have been unlinked
// from metadata while readers may still hold zero-copy views over them are
// parked here instead of being returned to the allocator. Each parked block is
// stamped with the lease epoch in force when it was deferred; it becomes
// reclaimable only once every lease opened at or before that epoch has
// drained, so no view can ever observe the allocator repurposing its bytes.
//
// Limbo itself is epoch-agnostic bookkeeping — the core's lease layer decides
// when an epoch has drained and calls Reclaimable with the verdict. Blocks in
// limbo are invisible to the allocator (still "allocated" from its point of
// view), so a crash with a populated limbo leaks them as recoverable garbage,
// exactly like a crash between a metadata unlink and its free on the
// non-deferred path.
type Limbo struct {
	mu      sync.Mutex
	entries []limboEntry
}

// limboEntry is one parked block and the epoch it was deferred under.
type limboEntry struct {
	epoch uint64
	id    PMID
}

// Defer parks ids under the given lease epoch.
func (l *Limbo) Defer(epoch uint64, ids ...PMID) {
	l.mu.Lock()
	for _, id := range ids {
		l.entries = append(l.entries, limboEntry{epoch: epoch, id: id})
	}
	l.mu.Unlock()
}

// Reclaimable removes and returns every parked block whose defer epoch has
// drained: blocks deferred strictly before minOpen (the oldest epoch with an
// open lease), or every block when haveOpen is false (no leases open at all).
// The relative order of returned ids is the defer order, so frees replay
// deterministically.
func (l *Limbo) Reclaimable(minOpen uint64, haveOpen bool) []PMID {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []PMID
	keep := l.entries[:0]
	for _, e := range l.entries {
		if !haveOpen || e.epoch < minOpen {
			out = append(out, e.id)
		} else {
			keep = append(keep, e)
		}
	}
	l.entries = keep
	return out
}
