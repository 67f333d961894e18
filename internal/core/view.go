package core

import (
	"fmt"
	"runtime"
	"sync/atomic"
)

// Zero-copy leased read views. Every Load* path in the library used to copy
// block payloads out of PMEM into a caller-owned DRAM buffer; for large reads
// that copy IS the read cost ("Persistent Memory I/O Primitives" shows direct
// load access beating copy-based access once transfers leave the cache-line
// regime). LoadBlockView removes it: when a request is served entirely by one
// stored block under an identity codec, the returned BlockView aliases the
// mapped pool bytes directly and the only virtual-time charge is the device
// read latency — the bytes never move until the application touches them.
//
// Safety comes from an epoch/lease protocol (Blizzard's insight: in-place
// access to a persistent structure needs a reclamation protocol so background
// frees cannot pull memory out from under readers):
//
//   - Opening a view takes a lease stamped with the current epoch, under the
//     id's read lock — so it is ordered against any concurrent republish.
//   - A record change that drops payload blocks — Delete, an overwrite that
//     contains listed blocks, a whole value over a value ref or a block
//     list — parks them on the limbo, one
//     list of every member pool's blocks under the lease lock, instead of
//     freeing them whenever any lease is open, stamps the parked blocks with
//     the current epoch, and bumps it.
//   - A parked block is returned to the allocator only when every lease opened
//     at or before its defer epoch has closed. Views taken before a republish
//     therefore keep reading the old blocks; views taken after plan against
//     the new metadata and never see the parked ones.
//   - Munmap invalidates every outstanding view: subsequent accesses fail
//     fast with ErrStaleView. Blocks still parked at Munmap are left in limbo
//     (recoverable garbage, the same contract as a crash between an unlink
//     and its free).
//
// Reads that cannot alias safely — gathers spanning several blocks, non-
// identity codecs, checksum-sampled loads, quarantined blocks — transparently
// fall back to the copying planner; the view they return owns a private
// buffer and no lease. The obs counter pair view.zero_copy/view.fallback
// makes the ratio observable.

// noCopy makes `go vet -copylocks` flag by-value copies of the types that
// embed it. A copied BlockView would split the closed flag from the lease,
// letting one copy's Close strand the other's accounting.
type noCopy struct{}

func (*noCopy) Lock()   {}
func (*noCopy) Unlock() {}

// BlockView is a leased, read-only view of one block read. Zero-copy views
// alias mapped pool bytes and hold a lease pinning deferred frees; fallback
// views own a private copy. Either way the view is valid until Close (or the
// handle's Munmap), and Bytes fails fast with ErrStaleView afterwards.
//
// Views are not safe for concurrent use by multiple goroutines and must not
// be copied by value (vet's copylocks check enforces the latter).
type BlockView struct {
	noCopy noCopy //nolint:unused // vet copylocks marker

	p      *PMEM
	id     string
	data   []byte
	epoch  uint64 // lease epoch; meaningful only when leased
	leased bool   // zero-copy: data aliases the pool and a lease is held
	closed atomic.Bool
}

// Bytes returns the view's read-only bytes. The slice aliases mapped PMEM on
// zero-copy views — the caller must not write through it and must not retain
// it past Close. It fails with ErrStaleView once the view is closed or the
// handle group has been unmapped.
func (v *BlockView) Bytes() ([]byte, error) {
	if v.closed.Load() {
		return nil, fmt.Errorf("core: view of %q is closed: %w", v.id, ErrStaleView)
	}
	if v.p.st.viewsInvalid.Load() {
		return nil, fmt.Errorf("core: view of %q outlived Munmap: %w", v.id, ErrStaleView)
	}
	return v.data, nil
}

// Len returns the view's length in bytes (valid even after Close).
func (v *BlockView) Len() int { return len(v.data) }

// ZeroCopy reports whether the view aliases mapped PMEM directly (true) or
// was served by the copying fallback planner (false).
func (v *BlockView) ZeroCopy() bool { return v.leased }

// Close releases the view. On a leased view it drops the lease and reclaims
// any limbo blocks whose epoch has drained; closing is idempotent, and a
// second Close is a no-op. After Munmap the lease is dropped but nothing is
// reclaimed — parked blocks stay in limbo as recoverable garbage.
func (v *BlockView) Close() error {
	if v.closed.Swap(true) {
		return nil
	}
	if !v.leased {
		return nil
	}
	st := v.p.st
	st.viewMu.Lock()
	st.viewLeases[v.epoch]--
	if st.viewLeases[v.epoch] == 0 {
		delete(st.viewLeases, v.epoch)
	}
	st.viewMu.Unlock()
	st.viewActive.Add(-1)
	if st.viewsInvalid.Load() {
		return nil
	}
	return v.p.reclaimLimbo()
}

// openLease takes one lease at the current epoch. Only the read engine's alias
// step calls it, under the id's read lock, ordering the lease against any
// concurrent free of the id's blocks.
func (st *shared) openLease() uint64 {
	st.viewMu.Lock()
	e := st.viewEpoch
	st.viewLeases[e]++
	st.viewMu.Unlock()
	st.viewActive.Add(1)
	return e
}

// minOpenEpoch returns the oldest epoch with an open lease. Caller holds
// viewMu.
func minOpenEpoch(leases map[uint64]int) (uint64, bool) {
	var mn uint64
	have := false
	for e := range leases {
		if !have || e < mn {
			mn, have = e, true
		}
	}
	return mn, have
}

// parked is a block in limbo: a record change dropped it while a lease was
// open, under the epoch it was parked in.
type parked struct {
	epoch uint64
	blockRec
}

// park is where a record change's dropped blocks go while any view lease is
// open (writeplan.go close decides): onto the limbo under the current epoch,
// which it then bumps, so leases opened later never pin them.
// The record change held the id's write lock, which excludes new views of
// THIS id; views of other ids only make the decision conservative (park
// instead of free), never unsafe.
//
// The blocks leave the quarantine here: their PMIDs will eventually be
// reallocated to healthy data, and a parked block is unreachable from
// metadata already.
func (p *PMEM) park(blocks []blockRec) error {
	st := p.st
	st.viewMu.Lock()
	e := st.viewEpoch
	st.viewEpoch++
	for _, b := range blocks {
		st.limbo = append(st.limbo, parked{e, blockRec{pool: b.pool, data: b.data}})
	}
	st.limboLen.Add(int64(len(blocks)))
	st.viewMu.Unlock()
	st.ins.viewDeferred.Add(int64(len(blocks)))
	p.unquarantine(blocks)
	// The last lease may have closed between the decision and the park:
	// sweep once so the blocks cannot strand until the next view closes.
	return p.reclaimLimbo()
}

// reclaimLimbo frees every parked block whose epoch has drained (no open
// lease at or before it), in park order. The free itself runs outside viewMu
// — it takes pool transactions — and in ascending pool order via the commit
// engine's freeBlocks, so the persist sequence stays deterministic. A crash
// with a populated limbo leaks its blocks as recoverable garbage, exactly like
// a crash between a record change and its free on the non-deferred path.
func (p *PMEM) reclaimLimbo() error {
	st := p.st
	if st.limboLen.Load() == 0 {
		return nil
	}
	st.viewMu.Lock()
	mn, have := minOpenEpoch(st.viewLeases)
	var frees []blockRec
	keep := st.limbo[:0]
	for _, b := range st.limbo {
		if have && b.epoch >= mn {
			keep = append(keep, b)
		} else {
			frees = append(frees, b.blockRec)
		}
	}
	st.limbo = keep
	st.limboLen.Add(-int64(len(frees)))
	st.viewMu.Unlock()
	if len(frees) == 0 {
		return nil
	}
	st.ins.viewReclaimed.Add(int64(len(frees)))
	return p.engine().freeBlocks(frees)
}

// LoadBlockView returns a leased, read-only view of the block (offs, counts)
// of array id. When the request is served entirely by one stored block under
// an identity codec (and the load is not selected for CRC verification), the
// view aliases the mapped pool bytes — zero-copy, charging only the device
// read latency. Otherwise it transparently falls back to the copying gather
// planner and owns a private buffer. Close the view when done; the bytes are
// valid until then.
func (p *PMEM) LoadBlockView(id string, offs, counts []uint64) (*BlockView, error) {
	p.asyncBarrier()
	op := p.beginOp(opLoadView, id)
	v, bytes, parallel, err := p.loadBlockView(id, offs, counts)
	op.done(parallel, bytes, err)
	return v, err
}

func (p *PMEM) loadBlockView(id string, offs, counts []uint64) (*BlockView, int64, bool, error) {
	if p.st.viewsInvalid.Load() {
		return nil, 0, false, fmt.Errorf("core: handle unmapped: %w", ErrStaleView)
	}
	// One plan serves both outcomes: the read engine aliases when it can and
	// degrades to the copying scatter when it cannot, under one lock hold and
	// one verification decision (readplan.go). A layout with nothing mapped to
	// alias always serves the fallback copy.
	pl := readPlan{id: id, offs: offs, counts: counts, consume: consumeAlias}
	if err := p.reader().run(&pl); err != nil {
		return nil, 0, false, err
	}
	return pl.view, pl.covered, pl.parallel, nil
}

// newView builds a view and arms its leak detector: a view garbage-collected
// without Close bumps the leaked counter (an atomic only — the finalizer must
// not touch the clock or release the lease, or virtual time would depend on
// GC scheduling). A leaked lease pins limbo reclamation forever; the counter
// is how tests and operators notice.
func (p *PMEM) newView(id string, data []byte, leased bool, epoch uint64) *BlockView {
	v := &BlockView{p: p, id: id, data: data, epoch: epoch, leased: leased}
	if leased {
		leaked := p.st.ins.viewLeaked
		runtime.SetFinalizer(v, func(fv *BlockView) {
			if !fv.closed.Load() {
				leaked.Inc()
			}
		})
	}
	return v
}

// NewFallbackView wraps caller-owned bytes in a non-leased fallback view for
// the typed public layer: when reinterpreting a zero-copy view's bytes as the
// requested element type fails (defensive; allocator alignment makes it
// unreachable for same-size element types), the layer copies out and rewraps
// the copy here so the caller still gets a working view with fallback
// semantics.
func (p *PMEM) NewFallbackView(id string, data []byte) *BlockView {
	return p.newView(id, data, false, 0)
}
