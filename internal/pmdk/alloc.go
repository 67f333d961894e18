package pmdk

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"pmemcpy/internal/pmem"
	"pmemcpy/internal/sim"
)

// Persistent allocator: the heap is its block headers. What the media holds is
// the shared brk word and one 16-byte header {size uint64 (total block size
// including the header), state uint64} before every block; the PMID handed to
// clients is the payload offset. Every byte of [heapOff, brk) is exactly one
// block, whose header reads alloc or free. The free lists — LIFO per size
// class, first-fit for huge blocks — are DRAM state under each arena's mutex,
// rebuilt at Open by one walk of the headers (walkHeap), the same walk Verify
// reports from.
//
// An allocation is a reservation and a claim (libpmemobj's reserve/publish):
//
//   - Reserve takes a block off the DRAM lists with no transaction. A popped
//     block's header already reads free; a split writes both halves' headers
//     as free, unlogged, each persisted — the tail first, then the head — so a
//     crash between them leaves one larger free block, never an overlap. A
//     reserved block is on no list and reads free on media: a crash before
//     its claim leaves a free block the walk finds.
//   - Claim logs the block's state word to alloc in the caller's transaction.
//     An abort restores free and gives the block back; a commit makes it
//     allocated. Cancel gives a reservation back unclaimed. A block given
//     back merges with the free block after it when a huge list holds that
//     one, as a split off a huge free block left it, so the split is undone
//     (giveBack).
//   - Alloc is a Reserve and its Claim, with one saving: its split's head
//     header is not persisted but logged by the claiming transaction before
//     the arena lock is dropped, so recovery or an abort restores it as a free
//     block of its new size before anyone else can have the tail.
//   - Free flips the state word to free in the caller's transaction; the
//     block joins a list only at commit.
//
// So no persistent word is ever pre-imaged by two live transactions: a block
// is on a list, reserved by one caller, or claimed or freed by one
// transaction, never two of these.
//
// The allocator is striped into arenas. Each arena splits class blocks off its
// current extent (arena.cur), a free block no list holds, reserved off a
// shared monotonic brk (the word at Pool.allocOff), so the heap is never
// statically partitioned: one arena can host a block nearly as large as the
// whole heap, and space an arena never touches is never stranded. The current
// extent is DRAM state: after a restart it is a free block like any other, and
// the walk puts it on a list. The brk is advanced with a plain persisted
// write: an extent is formatted as one free block, persisted, before the brk
// grants it, so a crash leaves a free block the walk finds — never a hole —
// and the brk can never double-grant space.
//
// Locking: an arena's mutex is held for one list operation only — a
// reservation's pop, split or carve, a give-back's merge or push, or a
// commit's pushes — and brkMu, taken inside a carve, is a leaf. A caller's
// home arena is its rank modulo the arena count (sim.Clock.Rank), so a rank's
// allocations and frees meet in one arena. A reservation that finds no fit at
// home reuses from the other arenas, in ascending order, before it carves; a
// freed block, or a given-back one that merges with nothing, joins the home
// arena's lists, wherever it was carved, so memory migrates between arenas
// with no cross-arena locking.
const (
	nSizeClasses  = 6 // block sizes 64, 128, 256, 512, 1024, 2048
	minBlock      = 64
	maxClassBlock = minBlock << (nSizeClasses - 1)

	// brkMetaSize holds the shared extent brk, padded to one cacheline.
	brkMetaSize = 64

	// Extent sizing bounds for the lazily reserved per-arena class extents
	// (the actual default scales with the heap; see newPoolStruct).
	minExtent = 4 << 10
	maxExtent = 1 << 20

	blockHeaderSize = 16

	stateAlloc = 0xA110C8ED00000001
	stateFree  = 0xF4EEB10C00000001
)

// freeBlock is a huge free-list entry, or an arena's current extent: the size
// rides along so first-fit never reads a header. A zero size is no block.
type freeBlock struct {
	id   PMID
	size int64
}

// push puts free block id on a's lists, onto its class list when size is a
// class size and huge is false, else onto the huge list. a.mu is held.
func (a *arena) push(id PMID, size int64, huge bool) {
	if c := sizeClass(size); c >= 0 && !huge {
		a.class[c] = append(a.class[c], id)
	} else {
		a.huge = append(a.huge, freeBlock{id, size})
	}
	a.free.Add(1)
}

// heapOp is a block a transaction claimed (undone at abort: the block goes
// back on a list) or freed (it joins a list at commit).
type heapOp struct {
	id    PMID
	size  int64
	freed bool
}

// home returns the caller's home arena: its rank modulo the arena count, so
// every transaction of a rank meets in one arena and what one frees the next
// reuses without stealing.
func (p *Pool) home(clk *sim.Clock) *arena { return &p.arenas[clk.Rank%len(p.arenas)] }

// settleHeap settles what a finished transaction did to the heap: at commit
// it counts its claims and frees and puts the blocks it freed on its home
// arena's lists, whose lock it takes for the pushes only; after a rollback
// (committed false) it gives the blocks it claimed, whose headers read free
// again, back (giveBack), last first, so each merges with what its split left.
func (tx *txn) settleHeap(committed bool) {
	if !committed {
		for i := len(tx.ops) - 1; i >= 0; i-- {
			if op := tx.ops[i]; !op.freed {
				tx.p.giveBack(tx.clk, op.id, op.size)
			}
		}
		return
	}
	var a *arena
	for _, op := range tx.ops {
		if !op.freed {
			tx.p.stats.allocs.Add(1)
			tx.p.stats.allocBytes.Add(op.size)
			continue
		}
		tx.p.stats.frees.Add(1)
		tx.p.stats.freeBytes.Add(op.size)
		if a == nil {
			a = tx.p.home(tx.clk)
			a.mu.Lock()
		}
		a.push(op.id, op.size, false)
	}
	if a != nil {
		a.mu.Unlock()
	}
}

// initBrk seeds the shared extent brk on a freshly formatted pool.
func (p *Pool) initBrk(clk *sim.Clock) error {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(p.heapOff))
	return p.StoreBytesAt(clk, PMID(p.allocOff), b[:], true, ptAllocBrk)
}

// reserveExtent claims a fresh extent of the heap off the shared brk and
// returns it as the free block it is formatted as. With exact set
// the extent is sized to the request (huge blocks get dedicated extents, so
// class carving never strands a tail comparable to the block itself);
// otherwise the default extent size is used. Every extent is a whole number
// of cachelines. It is formatted as one free block and persisted before the
// brk advance grants it (see the package comment).
func (p *Pool) reserveExtent(clk *sim.Clock, want int64, exact bool) (freeBlock, error) {
	p.brkMu.Lock()
	defer p.brkMu.Unlock()
	raw, err := p.ReadU64(clk, PMID(p.allocOff))
	if err != nil {
		return freeBlock{}, err
	}
	brk := int64(raw)
	ext := p.extent
	if exact || want > ext {
		ext = alignUp(want, sim.CachelineSize)
	}
	if brk+ext > p.heapEnd {
		ext = (p.heapEnd - brk) &^ (sim.CachelineSize - 1)
	}
	if ext < want {
		return freeBlock{}, fmt.Errorf("%w: heap exhausted (%d of %d used, need %d)",
			ErrNoSpace, brk-p.heapOff, p.heapEnd-p.heapOff, want)
	}
	fb := freeBlock{PMID(brk + blockHeaderSize), ext}
	if err := p.formatFree(clk, fb, ptAllocExtentFormat, true); err != nil {
		return freeBlock{}, err
	}
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(brk+ext))
	if err := p.StoreBytesAt(clk, PMID(p.allocOff), b[:], true, ptAllocBrk); err != nil {
		// A failed persist reached no line of the media: the old brk goes
		// back in the cache (the same line: this store cannot fail), so the
		// extent is past the brk again, not stranded before it.
		binary.LittleEndian.PutUint64(b[:], raw)
		p.StoreBytesAt(clk, PMID(p.allocOff), b[:], false, ptAllocBrk)
		return freeBlock{}, err
	}
	p.stats.extents.Add(1)
	p.stats.extentBytes.Add(ext)
	return fb, nil
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

// sizeClass returns the class whose blocks are exactly size bytes, or -1.
func sizeClass(size int64) int {
	for c := 0; c < nSizeClasses; c++ {
		if blockSizeOf(c) == size {
			return c
		}
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

// maxBlocks bounds every walk of a persistent list — a bucket chain: the heap
// cannot hold more blocks than this, so a walk that takes more steps is on a
// cycle and ends in ErrCorrupt instead of holding its lock forever.
func (p *Pool) maxBlocks() int64 { return (p.heapEnd-p.heapOff)/minBlock + 1 }

// blockHeader reads a block's size|state, as one access, given its payload
// PMID. Blocks may live anywhere in the heap regardless of which arena's list
// tracks them.
func (p *Pool) blockHeader(clk *sim.Clock, id PMID) (size int64, state uint64, err error) {
	if id < PMID(p.heapOff)+blockHeaderSize || int64(id) >= p.heapEnd {
		return 0, 0, fmt.Errorf("%w: %d outside heap", ErrBadPointer, id)
	}
	b, err := p.read(clk, id-blockHeaderSize, blockHeaderSize)
	if err != nil {
		return 0, 0, err
	}
	return int64(word(b, 0)), word(b, 1), nil
}

// corruptHeap is what a heap walk stops on: ErrCorrupt, with the invariant
// Verify reports it under.
type corruptHeap struct{ inv, detail string }

func (e *corruptHeap) Error() string { return ErrCorrupt.Error() + ": " + e.detail }
func (e *corruptHeap) Unwrap() error { return ErrCorrupt }

// walkHeap visits every block of [heapOff, brk) in address order: the brk is
// one access, each header another. It trusts nothing: a brk outside the heap
// (alloc.brk), or a header whose size is not a positive multiple of minBlock
// or runs past the brk, or whose state is neither alloc nor free
// (alloc.heap), ends the walk in a *corruptHeap; a failed read ends it in that
// error.
func (p *Pool) walkHeap(clk *sim.Clock, visit func(id PMID, size int64, free bool)) error {
	raw, err := p.ReadU64(clk, PMID(p.allocOff))
	if err != nil {
		return err
	}
	brk := int64(raw)
	if brk < p.heapOff || brk > p.heapEnd || (brk-p.heapOff)%minBlock != 0 {
		return &corruptHeap{"alloc.brk", fmt.Sprintf("brk %d outside heap [%d,%d)", brk, p.heapOff, p.heapEnd)}
	}
	for off := p.heapOff; off < brk; {
		b, err := p.read(clk, PMID(off), blockHeaderSize)
		if err != nil {
			return err
		}
		size, state := int64(word(b, 0)), word(b, 1)
		if size <= 0 || size%minBlock != 0 || size > brk-off || (state != stateAlloc && state != stateFree) {
			return &corruptHeap{"alloc.heap", fmt.Sprintf("block header at %d reads size %d, state %#x (brk at %d)",
				off, size, state, brk)}
		}
		visit(PMID(off+blockHeaderSize), size, state == stateFree)
		off += size
	}
	return nil
}

// rebuildLists fills the DRAM free lists at Open from one walk of the heap.
// Every free block goes to arena 0 — rank 0's home; other ranks reach them
// through the steal path — on its class list when its size is a class size,
// else on the huge list, and each list is ordered so that the lowest address
// is popped (or, on the huge list, tried) first.
func (p *Pool) rebuildLists(clk *sim.Clock) error {
	a := &p.arenas[0]
	if err := p.walkHeap(clk, func(id PMID, size int64, free bool) {
		if free {
			a.push(id, size, false)
		}
	}); err != nil {
		return err
	}
	for c := range a.class {
		slices.Reverse(a.class[c])
	}
	slices.Reverse(a.huge)
	return nil
}

// Alloc allocates a payload of n bytes inside tx and returns its PMID: a
// Reserve and its Claim. The payload contents are undefined (PMDK semantics;
// callers zero or overwrite). A split's head header is not persisted: the
// claim's pre-image of it is logged first (split), under the same arena lock.
func (p *Pool) Alloc(tx *Tx, n int64) (PMID, error) {
	t, err := tx.live("Alloc")
	if err != nil {
		return Null, err
	}
	return p.alloc(t, n)
}

func (p *Pool) alloc(tx *txn, n int64) (PMID, error) {
	id, err := p.reserve(tx.clk, n, tx)
	if err == nil {
		err = p.claim(tx, id)
	}
	return id, err
}

// Reserve takes a block for an n-byte payload off the DRAM lists, with no
// transaction, and returns its PMID. The block reads free on media until a
// transaction claims it (Claim); Cancel gives it back unclaimed.
//
// Placement: a free block from the home arena, else from any other arena
// whose free count is positive (freed blocks migrate between arenas, so reuse
// looks everywhere before the heap grows), else a fresh block carved from the
// home arena's current extent, else from whichever other arena has room.
// Each step holds one arena's lock, for that step only.
func (p *Pool) Reserve(clk *sim.Clock, n int64) (PMID, error) { return p.reserve(clk, n, nil) }

// reserve is Reserve for a block that tx, when not nil, claims next.
func (p *Pool) reserve(clk *sim.Clock, n int64, tx *txn) (PMID, error) {
	if n <= 0 {
		return Null, fmt.Errorf("pmdk: Alloc size must be positive, got %d", n)
	}
	home := p.home(clk)
	want, c := hugeBlockSize(n), classFor(n)
	if c >= 0 {
		want = blockSizeOf(c)
	}
	id, err := p.reuseIn(clk, home, c, want, tx)
	for i := 0; i < len(p.arenas) && id == Null && err == nil; i++ {
		if a := &p.arenas[i]; a != home && a.free.Load() > 0 {
			if id, err = p.reuseIn(clk, a, c, want, tx); id != Null {
				p.stats.arenaSteals.Add(1)
			}
		}
	}
	if id != Null || err != nil {
		return id, err
	}
	if id, err = p.carve(clk, home, want, tx); !errors.Is(err, ErrNoSpace) {
		return id, err
	}
	// Home arena exhausted: carve from any other arena's current extent.
	for i := range p.arenas {
		if a := &p.arenas[i]; a != home {
			id, err2 := p.carve(clk, a, want, tx)
			if err2 == nil {
				p.stats.arenaSteals.Add(1)
			}
			if !errors.Is(err2, ErrNoSpace) {
				return id, err2
			}
		}
	}
	return Null, err
}

// Cancel gives a block Reserve returned, and no transaction claimed, back
// (giveBack).
func (p *Pool) Cancel(clk *sim.Clock, id PMID) error {
	size, state, err := p.blockHeader(clk, id)
	if err != nil {
		return err
	}
	if state != stateFree {
		return fmt.Errorf("%w: Cancel of %d in state %#x (claimed?)", ErrBadPointer, id, state)
	}
	p.giveBack(clk, id, size)
	return nil
}

// giveBack lists again block id of size bytes, which reads free on media and
// which no list holds (a cancelled reservation, or a claim an abort undid):
// merged with the free block right after it when an arena's huge list holds
// that one, as the split that cut id off a huge free block left it, so giving
// such a reservation back restores the block it came from. Else it joins the
// caller's home arena's lists — a class block carved off a current extent
// too, where other ranks' reservations still find it. One arena lock is held
// at a time.
func (p *Pool) giveBack(clk *sim.Clock, id PMID, size int64) {
	for i := range p.arenas {
		if p.mergeIn(clk, &p.arenas[i], id, size) {
			return
		}
	}
	a := p.home(clk)
	a.mu.Lock()
	a.push(id, size, false)
	a.mu.Unlock()
}

// mergeIn merges free block id of size bytes, which no list holds, into the
// block right after it when a's huge list holds that one, and reports whether
// it did. The merge is one persisted header store, {size + the next block's,
// free}: the media reads the two blocks or the one. A failed store reached no
// line of the media and is put back in the cache; id is then left to the
// caller.
func (p *Pool) mergeIn(clk *sim.Clock, a *arena, id PMID, size int64) bool {
	next := id + PMID(size)
	a.mu.Lock()
	defer a.mu.Unlock()
	j := slices.IndexFunc(a.huge, func(fb freeBlock) bool { return fb.id == next })
	if j < 0 {
		return false
	}
	merged := freeBlock{id, size + a.huge[j].size}
	if err := p.formatFree(clk, merged, ptAllocMerge, true); err != nil {
		// The same line as the failed store: this store cannot fail.
		p.formatFree(clk, freeBlock{id, size}, ptAllocMerge, false)
		return false
	}
	a.huge[j] = merged
	return true
}

// Claim allocates a block Reserve returned inside tx: its state word is
// logged and set to alloc. From Claim on the block is the transaction's:
// allocated once tx commits, back on a list if it aborts — also when Claim
// fails, since the caller then aborts tx. Only a block that does not read free
// (not a reservation) is refused with ErrBadPointer, and stays the caller's.
func (p *Pool) Claim(tx *Tx, id PMID) error {
	t, err := tx.live("Claim")
	if err != nil {
		return err
	}
	return p.claim(t, id)
}

func (p *Pool) claim(tx *txn, id PMID) error {
	if id < PMID(p.heapOff)+blockHeaderSize || int64(id) >= p.heapEnd {
		return fmt.Errorf("%w: %d outside heap", ErrBadPointer, id)
	}
	// The header {size, state} is one access, charged by the pre-image that
	// logs it: the state word's below, or the whole header's (Alloc's split).
	h, err := p.m.Slice(int64(id)-blockHeaderSize, blockHeaderSize)
	if err != nil {
		return err
	}
	size, state := int64(word(h, 0)), word(h, 1)
	if state != stateFree {
		return fmt.Errorf("%w: Claim of %d in state %#x (not reserved)", ErrBadPointer, id, state)
	}
	tx.ops = append(tx.ops, heapOp{id: id, size: size})
	return tx.WriteU64(id-8, stateAlloc)
}

// Free returns the block holding id to the allocator inside tx: its header
// reads free once tx commits, and then it joins the committing rank's home
// arena's lists regardless of where it was carved.
func (p *Pool) Free(tx *Tx, id PMID) error {
	t, err := tx.live("Free")
	if err != nil {
		return err
	}
	return p.free(t, id)
}

func (p *Pool) free(tx *txn, id PMID) error {
	size, state, err := p.blockHeader(tx.clk, id)
	if err != nil {
		return err
	}
	if state != stateAlloc {
		return fmt.Errorf("%w: Free of %d in state %#x (double free?)", ErrBadPointer, id, state)
	}
	if err := tx.WriteU64(id-8, stateFree); err != nil {
		return err
	}
	tx.ops = append(tx.ops, heapOp{id: id, size: size, freed: true})
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

// reuseIn takes a free block of want bytes — class c's, or huge when c < 0 —
// off arena a's lists: the class list's last block, else the first fit on the
// huge list, split when it is larger. It returns Null when nothing fits.
func (p *Pool) reuseIn(clk *sim.Clock, a *arena, c int, want int64, tx *txn) (PMID, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if c >= 0 {
		if l := a.class[c]; len(l) > 0 {
			a.class[c] = l[:len(l)-1]
			a.free.Add(-1)
			return l[len(l)-1], nil
		}
		// Class list empty: split a class-sized block off a larger free one
		// (retired extent tails and returned extents land there, so this is
		// what keeps small allocs reusing them before the heap grows).
	}
	// First fit, most recently pushed first.
	for i := len(a.huge) - 1; i >= 0; i-- {
		if fb := a.huge[i]; fb.size >= want {
			rest, err := p.split(clk, fb, want, tx)
			if rest.size > 0 {
				a.huge[i] = rest
			} else {
				a.huge = slices.Delete(a.huge, i, i+1)
				a.free.Add(-1)
			}
			if err != nil {
				return Null, err
			}
			return fb.id, nil
		}
	}
	return Null, nil
}

// split cuts a block of want bytes off the head of free block fb and returns
// what is to be listed in fb's place: the free tail, empty when fb is exactly
// want bytes (every block size is a multiple of minBlock) and is taken whole.
// The two headers are written as free, unlogged: the tail's first, persisted,
// so a crash before the head's persist leaves fb one free block, never two
// that overlap. The head's is persisted too — or, when tx will claim the head,
// logged by tx instead: recovery or an abort then restores the head as a free
// block of want bytes. Either way it is durable before the tail can be anyone
// else's.
//
// A failure returns fb itself: a failed persist reached no line of the media,
// so the head's header is put back in the cache, and the tail's durable one
// lies inside fb, where no walk reads it. But a failed log entry may still be
// valid, and the abort apply it, so then the split must stand: the head is
// persisted and becomes tx's to give back at the abort, and the tail is
// listed. When that persist fails too, nothing is listed in fb's place: the
// media reads fb or the two halves, and the next Open's walk lists which.
func (p *Pool) split(clk *sim.Clock, fb freeBlock, want int64, tx *txn) (freeBlock, error) {
	if fb.size == want {
		return freeBlock{}, nil
	}
	tail, head := freeBlock{fb.id + PMID(want), fb.size - want}, freeBlock{fb.id, want}
	if err := p.formatFree(clk, tail, ptAllocSplit, true); err != nil {
		return fb, err
	}
	err := p.formatFree(clk, head, ptAllocSplit, tx == nil)
	if err == nil && tx != nil {
		if err = tx.Add(head.id-blockHeaderSize, blockHeaderSize); err != nil {
			if perr := p.formatFree(clk, head, ptAllocSplit, true); perr != nil {
				return freeBlock{}, errors.Join(err, perr)
			}
			tx.ops = append(tx.ops, heapOp{id: head.id, size: head.size})
			return tail, err
		}
	}
	if err != nil {
		// The same line as the failed store: this store cannot fail.
		p.formatFree(clk, fb, ptAllocSplit, false)
		return fb, err
	}
	return tail, nil
}

// formatFree writes fb's header as a free block of its size, and persists it
// when persist is set.
func (p *Pool) formatFree(clk *sim.Clock, fb freeBlock, pt pmem.PointID, persist bool) error {
	var b [blockHeaderSize]byte
	binary.LittleEndian.PutUint64(b[:], uint64(fb.size))
	binary.LittleEndian.PutUint64(b[8:], stateFree)
	return p.StoreBytesAt(clk, fb.id-blockHeaderSize, b[:], persist, pt)
}

// carve takes a fresh block of want bytes from arena a: class blocks are split
// off its current extent, after reserving a new extent off the shared brk
// when the current one is too small (the old one goes onto the huge list with
// no write, since its header already reads free). Huge blocks bypass the
// current extent and take a dedicated exact-size extent whole — mixing them
// into shared extents would strand tails comparable to the blocks themselves
// (the sharded copy engine allocates streams of same-sized huge shards, so
// that waste compounds to a fixed fraction of the heap).
func (p *Pool) carve(clk *sim.Clock, a *arena, want int64, tx *txn) (PMID, error) {
	if want > maxClassBlock {
		fb, err := p.reserveExtent(clk, want, true)
		return fb.id, err
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.cur.size < want {
		fb, err := p.reserveExtent(clk, want, false)
		if err != nil {
			return Null, err
		}
		if a.cur.size > 0 {
			a.push(a.cur.id, a.cur.size, true)
		}
		a.cur = fb
	}
	id := a.cur.id
	rest, err := p.split(clk, a.cur, want, tx)
	if a.cur = rest; err != nil {
		return Null, err
	}
	return id, nil
}

// HeapUsed returns the number of brk-reserved heap bytes (an upper bound on
// live data: it includes the unsplit rest of arenas' current extents, but
// freed blocks are reused before the brk grows).
func (p *Pool) HeapUsed(clk *sim.Clock) (int64, error) {
	raw, err := p.ReadU64(clk, PMID(p.allocOff))
	if err != nil {
		return 0, err
	}
	return int64(raw) - p.heapOff, nil
}
