package pmdk

import (
	"encoding/binary"
	"errors"
	"fmt"

	"pmemcpy/internal/sim"
)

// Persistent allocator: segregated free lists for small blocks plus a
// first-fit list for huge blocks, carving fresh space from a bump pointer.
// All metadata mutations happen inside the caller's transaction, so a crash
// at any point either completes or fully undoes an Alloc/Free — the property
// the crash tests verify.
//
// The allocator is striped into arenas. Arenas carve fresh blocks from
// private extents reserved off a shared monotonic brk (first word at
// Pool.allocOff), so the heap is never statically partitioned: one arena can
// host a block nearly as large as the whole heap, and space an arena never
// touches is never stranded. Each arena owns one mutex and one 128-byte
// metadata block; the metadata blocks are laid out contiguously after the
// brk word, one per arena:
//
//	0:  bump      uint64  next unused offset inside the current extent
//	8:  limit     uint64  end of the current extent (bump == limit: empty)
//	16: classHead [nSizeClasses]uint64  free-list heads (PMIDs)
//	64: hugeHead  uint64  free list of huge blocks
//
// The brk itself is advanced with a plain persisted write, not an undo-logged
// one: extents may be reserved by concurrent transactions, and pre-imaging
// the shared word in more than one live undo log would make recovery order
// ambiguous. The cost of that choice is bounded and benign — a crash between
// the brk advance and the reserving transaction's commit leaks the extent
// (the same failure class as an allocated-but-unpublished payload block),
// but the brk can never double-grant space.
//
// Locking protocol (the undo-log invariant is that a shared persistent word
// is pre-imaged by at most one active transaction, otherwise recovery order
// is ambiguous):
//
//   - A transaction's first Alloc/Free takes its home arena — the caller's
//     rank modulo the arena count (sim.Clock.Rank), never arrival order, so a
//     rank's transactions all meet in one arena — and keeps its lock until
//     commit/abort. Every later Alloc/Free in the same transaction uses the
//     same home arena, so a transaction normally holds exactly one arena lock
//     and there is no lock ordering to violate.
//   - If the home arena is exhausted, Alloc falls back to stealing from other
//     arenas with TryLock only — a transaction never blocks on a second
//     arena while holding one, which rules out deadlock outright. A stolen
//     arena the transaction did not end up mutating is released immediately;
//     a mutated one stays held until commit/abort like the home arena.
//   - Free always pushes onto the transaction's home arena's free list.
//     Blocks are self-describing (16-byte header), so free lists may hold
//     blocks from any arena's region; memory migrates between arenas under
//     free-heavy workloads instead of requiring cross-arena locking.
//
// Every block is preceded by a 16-byte header {size uint64 (total block
// size including the header), state uint64}. The PMID handed to clients is
// the payload offset. Free blocks store the next free PMID in their first
// payload word.
const (
	nSizeClasses  = 6 // block sizes 64, 128, 256, 512, 1024, 2048
	minBlock      = 64
	maxClassBlock = minBlock << (nSizeClasses - 1)

	// brkMetaSize holds the shared extent brk, padded to one cacheline.
	brkMetaSize = 64

	// allocMetaSize is the per-arena metadata block: bump + limit + class
	// heads + huge head, padded to two cachelines so arenas never share one.
	allocMetaSize = 128

	// Extent sizing bounds for the lazily reserved per-arena bump extents
	// (the actual default scales with the heap; see newPoolStruct).
	minExtent = 4 << 10
	maxExtent = 1 << 20

	blockHeaderSize = 16

	stateAlloc = 0xA110C8ED00000001
	stateFree  = 0xF4EEB10C00000001
)

func (a *arena) bumpOff() PMID { return PMID(a.metaOff) } // bump|limit: read and written as one 16-byte run
func (a *arena) classOff(c int) PMID {
	return PMID(a.metaOff + 16 + 8*int64(c))
}
func (a *arena) hugeOff() PMID { return PMID(a.metaOff + 16 + 8*nSizeClasses) }

// initBrk seeds the shared extent brk on a freshly formatted pool (arena
// metadata is already zeroed: bump == limit == 0 means "no extent yet").
func (p *Pool) initBrk(clk *sim.Clock) error {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(p.heapOff))
	return p.StoreBytesAt(clk, PMID(p.allocOff), b[:], true, ptAllocBrk)
}

// reserveExtent claims a fresh [start, limit) slice of the heap off the
// shared brk. With exact set the extent is sized to the request (huge blocks
// get dedicated extents, so bump carving never strands a tail comparable to
// the block itself); otherwise the default extent size is used. See the
// package comment for why the brk write is persisted but not undo-logged
// (monotonic, leak-only crash behavior).
func (p *Pool) reserveExtent(clk *sim.Clock, want int64, exact bool) (start, limit int64, err error) {
	p.brkMu.Lock()
	defer p.brkMu.Unlock()
	raw, err := p.ReadU64(clk, PMID(p.allocOff))
	if err != nil {
		return 0, 0, err
	}
	brk := int64(raw)
	ext := p.extent
	if exact || want > ext {
		ext = alignUp(want, sim.CachelineSize)
	}
	if brk+ext > p.heapEnd {
		ext = p.heapEnd - brk
	}
	if ext < want {
		return 0, 0, fmt.Errorf("%w: heap exhausted (%d of %d used, need %d)",
			ErrNoSpace, brk-p.heapOff, p.heapEnd-p.heapOff, want)
	}
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(brk+ext))
	if err := p.StoreBytesAt(clk, PMID(p.allocOff), b[:], true, ptAllocBrk); err != nil {
		return 0, 0, err
	}
	p.stats.extents.Add(1)
	p.stats.extentBytes.Add(ext)
	return brk, brk + ext, nil
}

// classFor returns the size-class index whose block fits a payload of n
// bytes, or -1 if n needs a huge block.
func classFor(n int64) int {
	need := n + blockHeaderSize
	bs := int64(minBlock)
	for c := 0; c < nSizeClasses; c++ {
		if need <= bs {
			return c
		}
		bs <<= 1
	}
	return -1
}

// blockSizeOf returns the total block size for class c.
func blockSizeOf(c int) int64 { return minBlock << c }

// hugeBlockSize returns the total block size for a huge payload of n bytes,
// rounded to the cacheline so payloads stay 8-aligned and flushes stay
// line-aligned.
func hugeBlockSize(n int64) int64 {
	return alignUp(n+blockHeaderSize, sim.CachelineSize)
}

// maxBlocks bounds every walk of a persistent list — a free list, a bucket
// chain: the heap cannot hold more blocks than this, so a walk that takes more
// steps is on a cycle and ends in ErrCorrupt instead of holding its lock
// forever.
func (p *Pool) maxBlocks() int64 { return (p.heapEnd-p.heapOff)/minBlock + 1 }

// blockWords reads the first n words of the block whose payload is id, from
// its header on, as one access: size|state (2), and for a block on a free
// list size|state|next (3) — the next pointer is the first payload word.
// Blocks may live anywhere in the heap regardless of which arena's list
// tracks them.
func (p *Pool) blockWords(clk *sim.Clock, id PMID, n int) ([]byte, error) {
	if id < PMID(p.heapOff)+blockHeaderSize || int64(id) >= p.heapEnd {
		return nil, fmt.Errorf("%w: %d outside heap", ErrBadPointer, id)
	}
	return p.read(clk, id-blockHeaderSize, int64(8*n))
}

// blockHeader reads a block's size|state given its payload PMID.
func (p *Pool) blockHeader(clk *sim.Clock, id PMID) (size int64, state uint64, err error) {
	b, err := p.blockWords(clk, id, 2)
	if err != nil {
		return 0, 0, err
	}
	return int64(word(b, 0)), word(b, 1), nil
}

// Alloc allocates a payload of n bytes inside tx and returns its PMID. The
// payload contents are undefined (PMDK semantics; callers zero or overwrite).
//
// Placement policy: reuse a free block from the home arena, else from any
// other arena whose free-count hint is positive (freed blocks migrate
// between arenas, so reuse must look everywhere before growing the heap),
// else carve fresh space from the home arena's bump region, else carve from
// whichever other arena has room. Every foreign-arena step uses TryLock
// only — a transaction never blocks on a second arena lock while holding
// one, which rules out deadlock outright.
func (p *Pool) Alloc(tx *Tx, n int64) (PMID, error) {
	t, err := tx.live("Alloc")
	if err != nil {
		return Null, err
	}
	return p.alloc(t, n)
}

func (p *Pool) alloc(tx *txn, n int64) (PMID, error) {
	if n <= 0 {
		return Null, fmt.Errorf("pmdk: Alloc size must be positive, got %d", n)
	}
	home := tx.homeArena()
	id, ok, err := p.reuseIn(tx, home, n)
	if err != nil {
		return Null, err
	}
	if ok {
		return id, nil
	}
	for i := range p.arenas {
		a := &p.arenas[i]
		if a == home || a.freeHint.Load() <= 0 {
			continue
		}
		id, ok, err := p.foreignArena(tx, a, n, p.reuseIn)
		if err != nil {
			return Null, err
		}
		if ok {
			return id, nil
		}
	}
	id, err = p.carveIn(tx, home, n)
	if err == nil || !errors.Is(err, ErrNoSpace) {
		return id, err
	}
	// Home arena exhausted: carve from any other arena we can lock without
	// blocking.
	for i := range p.arenas {
		a := &p.arenas[i]
		if a == home {
			continue
		}
		id, ok, err2 := p.foreignArena(tx, a, n, func(tx *txn, a *arena, n int64) (PMID, bool, error) {
			id, err := p.carveIn(tx, a, n)
			if err == nil {
				return id, true, nil
			}
			if errors.Is(err, ErrNoSpace) {
				return Null, false, nil
			}
			return Null, false, err
		})
		if err2 != nil {
			return Null, err2
		}
		if ok {
			return id, nil
		}
	}
	return Null, err
}

// foreignArena runs try against an arena the transaction does not own as its
// home, acquiring the lock with TryLock when needed and releasing it again
// if the attempt made no logged mutation there.
func (p *Pool) foreignArena(tx *txn, a *arena, n int64,
	try func(*txn, *arena, int64) (PMID, bool, error)) (PMID, bool, error) {
	held := tx.holdsArena(a)
	if !held {
		if !a.mu.TryLock() {
			return Null, false, nil
		}
		tx.holdArena(a)
	}
	id, ok, err := try(tx, a, n)
	if err != nil {
		return Null, false, err
	}
	if ok {
		p.stats.arenaSteals.Add(1)
		return id, true, nil
	}
	if !held {
		tx.releaseArenaIfClean(a)
	}
	return Null, false, nil
}

// Free returns the block holding id to the allocator inside tx. The block is
// pushed onto the transaction's home arena's free list regardless of where it
// was carved.
func (p *Pool) Free(tx *Tx, id PMID) error {
	t, err := tx.live("Free")
	if err != nil {
		return err
	}
	return p.free(t, id)
}

func (p *Pool) free(tx *txn, id PMID) error {
	a := tx.homeArena()
	size, state, err := p.blockHeader(tx.clk, id)
	if err != nil {
		return err
	}
	if state != stateAlloc {
		return fmt.Errorf("%w: Free of %d in state %#x (double free?)", ErrBadPointer, id, state)
	}
	var listOff PMID
	if size <= maxClassBlock && size >= minBlock && size&(size-1) == 0 {
		c := 0
		for blockSizeOf(c) != size {
			c++
		}
		listOff = a.classOff(c)
	} else {
		listOff = a.hugeOff()
	}
	head, err := p.ReadU64(tx.clk, listOff)
	if err != nil {
		return err
	}
	tx.markArenaDirty(a)
	if err := tx.WriteU64s(id-8, stateFree, head); err != nil { // state|next
		return err
	}
	if err := tx.WriteU64(listOff, uint64(id)); err != nil {
		return err
	}
	a.freeHint.Add(1)
	p.stats.frees.Add(1)
	p.stats.freeBytes.Add(size)
	return nil
}

// UsableSize returns the payload capacity of the block holding id.
func (p *Pool) UsableSize(clk *sim.Clock, id PMID) (int64, error) {
	size, state, err := p.blockHeader(clk, id)
	if err != nil {
		return 0, err
	}
	if state != stateAlloc {
		return 0, fmt.Errorf("%w: %d not allocated", ErrBadPointer, id)
	}
	return size - blockHeaderSize, nil
}

// reuseIn tries to satisfy an allocation from the free lists of one arena
// whose lock tx holds. ok=false means no fit; the arena's metadata is not
// mutated in that case.
func (p *Pool) reuseIn(tx *txn, a *arena, n int64) (PMID, bool, error) {
	clk := tx.clk
	want := hugeBlockSize(n)
	if c := classFor(n); c >= 0 {
		head, err := p.ReadU64(clk, a.classOff(c))
		if err != nil {
			return Null, false, err
		}
		if head != 0 {
			id, err := p.popFree(tx, a, a.classOff(c), PMID(head))
			if err != nil {
				return Null, false, err
			}
			p.stats.allocBytes.Add(blockSizeOf(c))
			return id, true, nil
		}
		// Class list empty: fall through to the huge list and split a
		// class-sized block off a larger free one (retired extent tails and
		// returned extents land there, so this is what keeps small allocs
		// reusing them before the heap grows).
		want = blockSizeOf(c)
	}
	// First-fit scan of the arena's huge free list: one access per block
	// visited (size|state|next).
	prev := a.hugeOff()
	cur, err := p.ReadU64(clk, prev)
	if err != nil {
		return Null, false, err
	}
	for steps := int64(0); cur != 0; steps++ {
		if steps >= p.maxBlocks() {
			return Null, false, fmt.Errorf("%w: huge free list at %d does not terminate (cycle?)", ErrCorrupt, a.hugeOff())
		}
		id := PMID(cur)
		b, err := p.blockWords(clk, id, 3)
		if err != nil {
			return Null, false, err
		}
		size, state, next := int64(word(b, 0)), word(b, 1), word(b, 2)
		if state != stateFree {
			return Null, false, fmt.Errorf("%w: huge free list entry %d in state %#x", ErrCorrupt, id, state)
		}
		if size >= want {
			got, err := p.takeHuge(tx, a, prev, id, size, want, next)
			if err != nil {
				return Null, false, err
			}
			return got, true, nil
		}
		prev, cur = id, next // the next pointer lives in the first payload word
	}
	return Null, false, nil
}

// carveIn takes a fresh block for an n-byte payload from one arena whose
// lock tx holds.
func (p *Pool) carveIn(tx *txn, a *arena, n int64) (PMID, error) {
	if c := classFor(n); c >= 0 {
		return p.carve(tx, a, blockSizeOf(c))
	}
	return p.carve(tx, a, hugeBlockSize(n))
}

// popFree removes the head block of a free list and marks it allocated.
func (p *Pool) popFree(tx *txn, a *arena, listOff, id PMID) (PMID, error) {
	next, err := p.ReadU64(tx.clk, id)
	if err != nil {
		return Null, err
	}
	tx.markArenaDirty(a)
	// Pre-image state|next as one range. The block's first payload word holds
	// the free-list next pointer, and the caller will overwrite it with
	// payload bytes outside the transaction: without its pre-image, rolling
	// back the pop would restore the list head to a block whose next pointer
	// is garbage.
	if err := tx.Add(id-8, 16); err != nil {
		return Null, err
	}
	if err := tx.WriteU64(id-8, stateAlloc); err != nil {
		return Null, err
	}
	if err := tx.WriteU64(listOff, next); err != nil {
		return Null, err
	}
	a.freeHint.Add(-1)
	p.stats.allocs.Add(1)
	return id, nil
}

// takeHuge unlinks a huge free block — size and next are what the walk that
// found it read — splitting off the tail if it is large enough to hold another
// block.
func (p *Pool) takeHuge(tx *txn, a *arena, prev, id PMID, size, want int64, next uint64) (PMID, error) {
	tx.markArenaDirty(a)
	// Pre-image size|state|next as one range: the next pointer in the block's
	// first payload word must survive the caller's payload writes (see
	// popFree).
	if err := tx.Add(id-blockHeaderSize, blockHeaderSize+8); err != nil {
		return Null, err
	}
	if size-want >= minBlock {
		// Split: the tail becomes a new free block linked in place of id.
		tail := id + PMID(want)
		if err := tx.WriteU64s(tail-blockHeaderSize, uint64(size-want), stateFree, next); err != nil {
			return Null, err
		}
		next, size = uint64(tail), want
	} else {
		a.freeHint.Add(-1) // no split: the list loses a block
	}
	if err := tx.WriteU64(prev, next); err != nil {
		return Null, err
	}
	if err := tx.WriteU64s(id-blockHeaderSize, uint64(size), stateAlloc); err != nil {
		return Null, err
	}
	p.stats.allocs.Add(1)
	p.stats.allocBytes.Add(size)
	return id, nil
}

// carve takes a fresh block of blockSize bytes from the arena's current bump
// extent, reserving a new extent off the shared brk when the current one is
// too small. Huge blocks bypass the bump extent entirely and get a dedicated
// exact-size extent — mixing them into shared extents would strand tails
// comparable to the blocks themselves (the sharded copy engine allocates
// streams of same-sized huge shards, so that waste compounds to a fixed
// fraction of the heap). The arena's bump/limit updates are undo-logged as
// usual; only the brk advance inside reserveExtent is not (see the package
// comment).
func (p *Pool) carve(tx *txn, a *arena, blockSize int64) (PMID, error) {
	clk := tx.clk
	if blockSize > maxClassBlock {
		start, limit, err := p.reserveExtent(clk, blockSize, true)
		if err != nil {
			return Null, err
		}
		tx.extents = append(tx.extents, reservedExtent{a: a, start: start, limit: limit})
		tx.markArenaDirty(a)
		if err := tx.WriteU64s(PMID(start), uint64(blockSize), stateAlloc); err != nil {
			return Null, err
		}
		p.stats.allocs.Add(1)
		p.stats.allocBytes.Add(blockSize)
		return PMID(start + blockHeaderSize), nil
	}
	bl, err := p.read(clk, a.bumpOff(), 16) // bump|limit, as they are written
	if err != nil {
		return Null, err
	}
	bump, limit := int64(word(bl, 0)), int64(word(bl, 1))
	if limit-bump < blockSize {
		start, newLimit, err := p.reserveExtent(clk, blockSize, false)
		if err != nil {
			return Null, err
		}
		tx.extents = append(tx.extents, reservedExtent{a: a, start: start, limit: newLimit})
		tx.markArenaDirty(a)
		// Retire the old extent's unused tail onto the huge free list so
		// switching extents strands at most one header's worth of space.
		if tail := limit - bump; tail >= minBlock {
			if err := p.pushFreeBlock(tx, a, PMID(bump+blockHeaderSize), tail); err != nil {
				return Null, err
			}
		}
		bump, limit = start, newLimit
	}
	tx.markArenaDirty(a)
	// bump|limit are logged as one range even when only the bump moves, so
	// every carve of a transaction is covered by its first one's pre-image.
	if err := tx.WriteU64s(a.bumpOff(), uint64(bump+blockSize), uint64(limit)); err != nil {
		return Null, err
	}
	if err := tx.WriteU64s(PMID(bump), uint64(blockSize), stateAlloc); err != nil {
		return Null, err
	}
	p.stats.allocs.Add(1)
	p.stats.allocBytes.Add(blockSize)
	return PMID(bump + blockHeaderSize), nil
}

// returnExtents pushes extents reserved by an aborted transaction onto their
// arena's huge free list. Rolling back the undo log restored each arena's
// bump/limit to the pre-transaction extent, which would otherwise orphan the
// reservations on every clean abort. The push uses the ordered-publish
// pattern (format the block, persist, then flip the list head) instead of a
// transaction: a crash mid-push leaks the extent, which is exactly the crash
// behavior of the un-logged brk advance itself. The arenas involved are
// still locked by the aborting transaction (reserving marked them dirty).
func (tx *txn) returnExtents() error {
	p := tx.p
	for _, e := range tx.extents {
		size := e.limit - e.start
		if size < minBlock {
			continue
		}
		head, err := p.ReadU64(tx.clk, e.a.hugeOff())
		if err != nil {
			return err
		}
		var blk [24]byte
		binary.LittleEndian.PutUint64(blk[0:], uint64(size))
		binary.LittleEndian.PutUint64(blk[8:], stateFree)
		binary.LittleEndian.PutUint64(blk[16:], head)
		if err := p.StoreBytesAt(tx.clk, PMID(e.start), blk[:], true, ptAllocExtentBlock); err != nil {
			return err
		}
		var hw [8]byte
		binary.LittleEndian.PutUint64(hw[:], uint64(e.start+blockHeaderSize))
		if err := p.StoreBytesAt(tx.clk, e.a.hugeOff(), hw[:], true, ptAllocExtentHead); err != nil {
			return err
		}
		e.a.freeHint.Add(1)
	}
	tx.extents = nil
	return nil
}

// pushFreeBlock formats [id-blockHeaderSize, id-blockHeaderSize+size) as a
// free block and pushes it onto the arena's huge free list (which accepts any
// size >= minBlock; first-fit skips entries that are too small).
func (p *Pool) pushFreeBlock(tx *txn, a *arena, id PMID, size int64) error {
	head, err := p.ReadU64(tx.clk, a.hugeOff())
	if err != nil {
		return err
	}
	if err := tx.WriteU64s(id-blockHeaderSize, uint64(size), stateFree, head); err != nil {
		return err
	}
	if err := tx.WriteU64(a.hugeOff(), uint64(id)); err != nil {
		return err
	}
	a.freeHint.Add(1)
	return nil
}

// rebuildFreeHints walks every arena's free lists at Open time to seed the
// DRAM free-count hints (they do not survive restart). The walk is bounded
// by maxBlocks so a corrupt cyclic list cannot hang Open.
func (p *Pool) rebuildFreeHints(clk *sim.Clock) error {
	for i := range p.arenas {
		a := &p.arenas[i]
		var count int64
		heads := make([]PMID, 0, nSizeClasses+1)
		for c := 0; c < nSizeClasses; c++ {
			heads = append(heads, a.classOff(c))
		}
		heads = append(heads, a.hugeOff())
		for _, listOff := range heads {
			cur, err := p.ReadU64(clk, listOff)
			if err != nil {
				return err
			}
			for cur != 0 {
				count++
				if count > p.maxBlocks() {
					return fmt.Errorf("%w: free list at %d does not terminate", ErrCorrupt, listOff)
				}
				next, err := p.ReadU64(clk, PMID(cur))
				if err != nil {
					return err
				}
				cur = next
			}
		}
		a.freeHint.Store(count)
	}
	return nil
}

// HeapUsed returns the number of brk-reserved heap bytes (an upper bound on
// live data: it includes arenas' unfilled extent tails and extents leaked by
// a crash mid-reservation, but freed blocks are reused before the brk grows).
func (p *Pool) HeapUsed(clk *sim.Clock) (int64, error) {
	raw, err := p.ReadU64(clk, PMID(p.allocOff))
	if err != nil {
		return 0, err
	}
	return int64(raw) - p.heapOff, nil
}
