package pmdk

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"pmemcpy/internal/sim"
)

// Persistent allocator: the heap is its block headers. What the media holds is
// the shared brk word and one 16-byte header {size uint64 (total block size
// including the header), state uint64} before every block; the PMID handed to
// clients is the payload offset. Every byte of [heapOff, brk) is exactly one
// block, whose header reads alloc or free. The free lists — LIFO per size
// class, first-fit for huge blocks — are DRAM state under each arena's mutex,
// rebuilt at Open by one walk of the headers (walkHeap), the same walk Verify
// reports from. Alloc and Free log the headers they change in the caller's
// transaction; the lists follow the transaction (heapOp): a block taken off a
// list goes back on abort, and a freed block joins a list only at commit, so a
// crash or an abort leaves headers and lists agreeing.
//
// The allocator is striped into arenas. Each arena splits class blocks off its
// current extent (arena.cur), a free block no list holds, reserved off a
// shared monotonic brk (the word at Pool.allocOff), so the heap is never
// statically partitioned: one arena can host a block nearly as large as the
// whole heap, and space an arena never touches is never stranded. The current
// extent is DRAM state: after a restart it is a free block like any other, and
// the walk puts it on a list.
//
// The brk itself is advanced with a plain persisted write, not an undo-logged
// one: extents may be reserved by concurrent transactions, and pre-imaging
// the shared word in more than one live undo log would make recovery order
// ambiguous. An extent is formatted as one free block, persisted, before the
// brk grants it, and the reserving transaction's first write into it
// pre-images that header. So a reservation that crashes or aborts leaves a
// free block the walk finds — never a hole — and the brk can never
// double-grant space.
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
//     Blocks are self-describing, so free lists may hold blocks from any
//     arena's region; memory migrates between arenas under free-heavy
//     workloads instead of requiring cross-arena locking.
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

// heapOp is one change a transaction made to the DRAM free lists or an
// arena's current extent (or, for opFree, will make at commit), kept so that
// abort can undo it.
type heapOp struct {
	a    *arena
	id   PMID
	size int64
	i    int32 // the class list (opPop) or the huge-list index (opTake, opSplit)
	kind uint8
}

const (
	opPop     = iota // id came off class list i
	opTake           // huge[i] = {id, size} was removed
	opSplit          // huge[i] was {id, size}; it now holds the split-off tail
	opCur            // a.cur was {id, size}; with i == 1 it was pushed onto huge
	opReserve        // the extent {id, size} was reserved: on abort it is a free block
	opFree           // id was freed: it joins a's lists at commit
)

// commitHeap puts the blocks the transaction freed on their lists. The arenas
// are still locked (Free took the home arena).
func (tx *txn) commitHeap() {
	for _, op := range tx.ops {
		if op.kind == opFree {
			op.a.push(op.id, op.size, false)
		}
	}
}

// undoHeap returns the DRAM free lists to what they were before the
// transaction, after its undo log has been rolled back: the changes are undone
// in reverse, so each finds its list as it left it, and then every extent the
// transaction reserved goes onto its arena's huge list — the rollback restored
// the free header the extent was formatted with. Frees are dropped: an
// aborted Free is never reused.
func (tx *txn) undoHeap() {
	for i := len(tx.ops) - 1; i >= 0; i-- {
		op, a := &tx.ops[i], tx.ops[i].a
		switch op.kind {
		case opPop:
			a.class[op.i] = append(a.class[op.i], op.id)
			a.free.Add(1)
		case opTake:
			a.huge = slices.Insert(a.huge, int(op.i), freeBlock{op.id, op.size})
			a.free.Add(1)
		case opSplit:
			a.huge[op.i] = freeBlock{op.id, op.size}
		case opCur:
			if op.i == 1 {
				a.huge = a.huge[:len(a.huge)-1]
				a.free.Add(-1)
			}
			a.cur = freeBlock{op.id, op.size}
		}
	}
	for _, op := range tx.ops {
		if op.kind == opReserve {
			op.a.push(op.id, op.size, true)
		}
	}
}

// initBrk seeds the shared extent brk on a freshly formatted pool.
func (p *Pool) initBrk(clk *sim.Clock) error {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(p.heapOff))
	return p.StoreBytesAt(clk, PMID(p.allocOff), b[:], true, ptAllocBrk)
}

// reserveExtent claims a fresh extent of the heap off the shared brk for
// arena a and returns it as the free block it is formatted as. With exact set
// the extent is sized to the request (huge blocks get dedicated extents, so
// class carving never strands a tail comparable to the block itself);
// otherwise the default extent size is used. Every extent is a whole number
// of cachelines. It is formatted as one free block and persisted before the
// brk advance grants it (see the package comment).
func (p *Pool) reserveExtent(tx *txn, a *arena, want int64, exact bool) (freeBlock, error) {
	clk := tx.clk
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
	var b [blockHeaderSize]byte
	binary.LittleEndian.PutUint64(b[:], uint64(ext))
	binary.LittleEndian.PutUint64(b[8:], stateFree)
	if err := p.StoreBytesAt(clk, PMID(brk), b[:], true, ptAllocExtentFormat); err != nil {
		return freeBlock{}, err
	}
	binary.LittleEndian.PutUint64(b[:], uint64(brk+ext))
	if err := p.StoreBytesAt(clk, PMID(p.allocOff), b[:8], true, ptAllocBrk); err != nil {
		return freeBlock{}, err
	}
	fb := freeBlock{PMID(brk + blockHeaderSize), ext}
	tx.ops = append(tx.ops, heapOp{a: a, kind: opReserve, id: fb.id, size: fb.size})
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

// Alloc allocates a payload of n bytes inside tx and returns its PMID. The
// payload contents are undefined (PMDK semantics; callers zero or overwrite).
//
// Placement policy: reuse a free block from the home arena, else from any
// other arena whose free count is positive (freed blocks migrate between
// arenas, so reuse must look everywhere before growing the heap), else carve
// fresh space from the home arena's current extent, else carve from whichever
// other arena has room. Every foreign-arena step uses TryLock only — a
// transaction never blocks on a second arena lock while holding one, which
// rules out deadlock outright.
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
		if a == home || a.free.Load() <= 0 {
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

// Free returns the block holding id to the allocator inside tx: its header
// reads free once tx commits, and then it joins the transaction's home
// arena's free list regardless of where it was carved.
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
	tx.markArenaDirty(a)
	if err := tx.WriteU64(id-8, stateFree); err != nil {
		return err
	}
	tx.ops = append(tx.ops, heapOp{a: a, kind: opFree, id: id, size: size})
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
// whose lock tx holds. ok=false means no fit; nothing is mutated in that case.
func (p *Pool) reuseIn(tx *txn, a *arena, n int64) (PMID, bool, error) {
	want := hugeBlockSize(n)
	if c := classFor(n); c >= 0 {
		if l := a.class[c]; len(l) > 0 {
			id := l[len(l)-1]
			tx.markArenaDirty(a)
			if err := tx.WriteU64(id-8, stateAlloc); err != nil {
				return Null, false, err
			}
			a.class[c] = l[:len(l)-1]
			a.free.Add(-1)
			tx.ops = append(tx.ops, heapOp{a: a, kind: opPop, i: int32(c), id: id})
			p.stats.allocs.Add(1)
			p.stats.allocBytes.Add(blockSizeOf(c))
			return id, true, nil
		}
		// Class list empty: fall through to the huge list and split a
		// class-sized block off a larger free one (retired extent tails and
		// returned extents land there, so this is what keeps small allocs
		// reusing them before the heap grows).
		want = blockSizeOf(c)
	}
	// First fit, most recently pushed first.
	for i := len(a.huge) - 1; i >= 0; i-- {
		if a.huge[i].size >= want {
			id, err := p.takeHuge(tx, a, i, want)
			return id, err == nil, err
		}
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

// takeHuge takes a.huge[i] for a block of want bytes, leaving the split-off
// tail in its place when there is one.
func (p *Pool) takeHuge(tx *txn, a *arena, i int, want int64) (PMID, error) {
	fb := a.huge[i]
	tail, err := p.split(tx, a, fb, want)
	if err != nil {
		return Null, err
	}
	if tail.size == 0 {
		a.huge = slices.Delete(a.huge, i, i+1)
		a.free.Add(-1)
		tx.ops = append(tx.ops, heapOp{a: a, kind: opTake, i: int32(i), id: fb.id, size: fb.size})
	} else {
		a.huge[i] = tail
		tx.ops = append(tx.ops, heapOp{a: a, kind: opSplit, i: int32(i), id: fb.id, size: fb.size})
	}
	return fb.id, nil
}

// split allocates a block of want bytes at the head of free block fb and
// returns the free tail, which is empty when fewer than minBlock bytes would
// be left and fb is taken whole. It logs the tail's and the block's
// size|state, or only the state word when there is no tail; the caller files
// the tail.
func (p *Pool) split(tx *txn, a *arena, fb freeBlock, want int64) (freeBlock, error) {
	tx.markArenaDirty(a)
	var tail freeBlock
	if fb.size-want < minBlock {
		if err := tx.WriteU64(fb.id-8, stateAlloc); err != nil {
			return freeBlock{}, err
		}
		want = fb.size
	} else {
		tail = freeBlock{fb.id + PMID(want), fb.size - want}
		if err := tx.WriteU64s(tail.id-blockHeaderSize, uint64(tail.size), stateFree); err != nil {
			return freeBlock{}, err
		}
		if err := tx.WriteU64s(fb.id-blockHeaderSize, uint64(want), stateAlloc); err != nil {
			return freeBlock{}, err
		}
	}
	p.stats.allocs.Add(1)
	p.stats.allocBytes.Add(want)
	return tail, nil
}

// carve takes a fresh block of blockSize bytes by splitting the arena's
// current extent, reserving a new extent off the shared brk when the current
// one is too small; the old one goes onto the huge list with no write, since
// its header already reads free. Huge blocks bypass the current extent and
// take a dedicated exact-size extent whole — mixing them into shared extents
// would strand tails comparable to the blocks themselves (the sharded copy
// engine allocates streams of same-sized huge shards, so that waste compounds
// to a fixed fraction of the heap).
func (p *Pool) carve(tx *txn, a *arena, blockSize int64) (PMID, error) {
	if blockSize > maxClassBlock {
		fb, err := p.reserveExtent(tx, a, blockSize, true)
		if err != nil {
			return Null, err
		}
		tx.markArenaDirty(a)
		if err := tx.WriteU64s(fb.id-blockHeaderSize, uint64(fb.size), stateAlloc); err != nil {
			return Null, err
		}
		p.stats.allocs.Add(1)
		p.stats.allocBytes.Add(fb.size)
		return fb.id, nil
	}
	op := heapOp{a: a, kind: opCur, id: a.cur.id, size: a.cur.size}
	if a.cur.size < blockSize {
		fb, err := p.reserveExtent(tx, a, blockSize, false)
		if err != nil {
			return Null, err
		}
		tx.markArenaDirty(a)
		if a.cur.size > 0 {
			a.push(a.cur.id, a.cur.size, true)
			op.i = 1
		}
		a.cur = fb
	}
	tx.ops = append(tx.ops, op)
	id := a.cur.id
	tail, err := p.split(tx, a, a.cur, blockSize)
	if err != nil {
		return Null, err
	}
	a.cur = tail
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
