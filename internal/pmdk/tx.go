package pmdk

import (
	"encoding/binary"
	"fmt"

	"pmemcpy/internal/pmem"
	"pmemcpy/internal/sim"
)

// Lane log layout (per lane):
//
//	0:  active   uint64 (1 while a transaction is open)
//	8:  nentries uint64 (committed undo entries)
//	16: entries  {off uint64, len uint64, preimage [len]byte (8-padded)}...
//
// Crash-consistency protocol:
//  1. Begin: active=1, persist, fence.
//  2. Add: write the pre-image entry, persist it, fence, then bump nentries
//     (single atomic 8-byte store) and persist. Only after that may the
//     caller mutate the covered range. A crash between any two steps leaves
//     either a complete, counted entry or an uncounted (ignored) one.
//  3. Commit: persist every mutated range, fence, then active=0, persist.
//  4. Recovery: for every lane with active=1, apply the nentries pre-images
//     in reverse order, persist them, then clear the lane.
const (
	laneActive   = 0
	laneNEntries = 8
	laneEntries  = 16
)

// Tx is an undo-log transaction. A Tx is owned by a single goroutine; the
// data it protects is additionally guarded by the caller's persistent locks.
type Tx struct {
	p    *Pool
	clk  *sim.Clock
	lane int
	base int64 // pool offset of this lane's log

	used   int64 // bytes of entry area consumed
	ranges []txRange
	done   bool

	// held lists the arena locks this transaction owns, in acquisition
	// order. held[0] is the home arena (taken blocking at the first
	// Alloc/Free); later entries were stolen with TryLock. dirty marks
	// arenas whose metadata this transaction has pre-imaged: those must stay
	// locked until commit/abort so no other transaction logs the same words
	// while this one is active.
	held []heldArena

	// extents records brk reservations made on this transaction's behalf.
	// The brk advance is not undo-logged, so a clean Abort must hand the
	// space back explicitly (see returnExtents); Commit just drops the list.
	extents []reservedExtent
}

type reservedExtent struct {
	a            *arena
	start, limit int64
}

type heldArena struct {
	ar    *arena
	dirty bool
}

// homeArena returns the transaction's home arena, picking one round-robin
// and taking its lock (blocking) on first use. Blocking is safe here because
// the transaction holds no other arena lock yet.
func (tx *Tx) homeArena() *arena {
	if len(tx.held) > 0 {
		return tx.held[0].ar
	}
	i := int(tx.p.arenaRR.Add(1)-1) % len(tx.p.arenas)
	a := &tx.p.arenas[i]
	a.mu.Lock()
	tx.held = append(tx.held, heldArena{ar: a})
	return a
}

// holdsArena reports whether tx owns a's lock.
func (tx *Tx) holdsArena(a *arena) bool {
	for i := range tx.held {
		if tx.held[i].ar == a {
			return true
		}
	}
	return false
}

// holdArena records an arena lock acquired by the caller (via TryLock).
func (tx *Tx) holdArena(a *arena) {
	tx.held = append(tx.held, heldArena{ar: a})
}

// markArenaDirty flags a as mutated by this transaction; its lock is then
// pinned until commit/abort.
func (tx *Tx) markArenaDirty(a *arena) {
	for i := range tx.held {
		if tx.held[i].ar == a {
			tx.held[i].dirty = true
			return
		}
	}
}

// releaseArenaIfClean unlocks a stolen arena the transaction never mutated.
// The home arena (held[0]) is always kept so repeated Alloc/Free calls stay
// on one stripe.
func (tx *Tx) releaseArenaIfClean(a *arena) {
	for i := 1; i < len(tx.held); i++ {
		if tx.held[i].ar == a {
			if tx.held[i].dirty {
				return
			}
			tx.held = append(tx.held[:i], tx.held[i+1:]...)
			a.mu.Unlock()
			return
		}
	}
}

// unlockArenas releases every held arena lock at commit/abort.
func (tx *Tx) unlockArenas() {
	for i := range tx.held {
		tx.held[i].ar.mu.Unlock()
	}
	tx.held = nil
}

type txRange struct{ off, n int64 }

// Begin opens a transaction, blocking until a lane is free.
func (p *Pool) Begin(clk *sim.Clock) (*Tx, error) {
	lane := <-p.laneFree
	tx := &Tx{p: p, clk: clk, lane: lane, base: p.laneOff + int64(lane)*p.laneSize}
	if err := tx.setU64(laneActive, 1, ptTxBegin); err != nil {
		// The store itself landed even though its persist failed; scrub the
		// word back to idle (best-effort — irrelevant on a dead device) so a
		// transient media error does not leak an active lane to the free pool.
		_ = tx.setU64(laneActive, 0, ptTxBegin)
		p.laneFree <- lane
		return nil, err
	}
	p.m.Fence(clk, ptTxBeginDrain)
	p.stats.transactions.Add(1)
	return tx, nil
}

// setU64 writes a lane-header field durably, persisting at the caller's
// protocol point.
func (tx *Tx) setU64(field int64, v uint64, pt pmem.PointID) error {
	off := tx.base + field
	if err := tx.p.m.Capture(off, 8); err != nil {
		return err
	}
	b, err := tx.p.m.Slice(off, 8)
	if err != nil {
		return err
	}
	binary.LittleEndian.PutUint64(b, v)
	tx.p.m.ChargeWrite(tx.clk, 8)
	return tx.p.m.Persist(tx.clk, off, 8, pt)
}

func (tx *Tx) readU64(field int64) (uint64, error) {
	b, err := tx.p.m.Slice(tx.base+field, 8)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b), nil
}

// Add logs the pre-image of [off, off+n) so the range can be rolled back if
// the transaction aborts or the machine crashes before Commit. It must be
// called before the range is mutated.
func (tx *Tx) Add(off PMID, n int64) error {
	if tx.done {
		return fmt.Errorf("pmdk: Add on finished transaction")
	}
	if err := tx.p.checkRange(int64(off), n); err != nil {
		return err
	}
	entrySize := 16 + align8(n)
	if laneEntries+tx.used+entrySize > tx.p.laneSize {
		return fmt.Errorf("%w: need %d more bytes in lane of %d",
			ErrTxLogFull, entrySize, tx.p.laneSize)
	}
	eoff := tx.base + laneEntries + tx.used

	// Write the entry: header then pre-image payload.
	if err := tx.p.m.Capture(eoff, entrySize); err != nil {
		return err
	}
	eb, err := tx.p.m.Slice(eoff, entrySize)
	if err != nil {
		return err
	}
	binary.LittleEndian.PutUint64(eb[0:], uint64(off))
	binary.LittleEndian.PutUint64(eb[8:], uint64(n))
	src, err := tx.p.m.Slice(int64(off), n)
	if err != nil {
		return err
	}
	copy(eb[16:], src)
	tx.p.m.ChargeRead(tx.clk, n)
	tx.p.m.ChargeWrite(tx.clk, entrySize)
	if err := tx.p.m.Persist(tx.clk, eoff, entrySize, ptTxLogEntry); err != nil {
		return err
	}
	tx.p.m.Fence(tx.clk, ptTxLogDrain)

	// Count it (atomic 8-byte store), then allow the mutation.
	nent, err := tx.readU64(laneNEntries)
	if err != nil {
		return err
	}
	if err := tx.setU64(laneNEntries, nent+1, ptTxLogCount); err != nil {
		return err
	}
	tx.used += entrySize
	// Capture the to-be-mutated range so the crash simulator can exercise
	// partial persistence of the mutation itself.
	if err := tx.p.m.Capture(int64(off), n); err != nil {
		return err
	}
	tx.ranges = append(tx.ranges, txRange{int64(off), n})
	return nil
}

// WriteU64 logs and writes a u64 field inside the transaction.
func (tx *Tx) WriteU64(off PMID, v uint64) error {
	if err := tx.Add(off, 8); err != nil {
		return err
	}
	b, err := tx.p.m.Slice(int64(off), 8)
	if err != nil {
		return err
	}
	binary.LittleEndian.PutUint64(b, v)
	tx.p.m.ChargeWrite(tx.clk, 8)
	return nil
}

// Commit persists every mutated range and retires the transaction.
func (tx *Tx) Commit() error {
	if tx.done {
		return fmt.Errorf("pmdk: double Commit/Abort")
	}
	for _, r := range tx.ranges {
		if err := tx.p.m.Persist(tx.clk, r.off, r.n, ptTxCommitData); err != nil {
			return err
		}
	}
	tx.p.m.Fence(tx.clk, ptTxCommitDrain)
	if err := tx.finishLane(); err != nil {
		tx.unlockArenas()
		return err
	}
	tx.done = true
	tx.unlockArenas()
	tx.p.laneFree <- tx.lane
	return nil
}

// Abort rolls the transaction back by applying its pre-images in reverse.
func (tx *Tx) Abort() error {
	if tx.done {
		return fmt.Errorf("pmdk: double Commit/Abort")
	}
	if err := tx.p.rollbackLane(tx.clk, tx.lane); err != nil {
		tx.unlockArenas()
		return err
	}
	// The rollback reset arena bump/limit words to their previous extents;
	// push any extents this transaction reserved onto free lists so clean
	// aborts do not leak heap (their arenas are still locked here).
	if err := tx.returnExtents(); err != nil {
		tx.unlockArenas()
		return err
	}
	tx.done = true
	tx.unlockArenas()
	tx.p.stats.aborts.Add(1)
	tx.p.laneFree <- tx.lane
	return nil
}

// finishLane marks the lane idle: nentries=0 then active=0, both persisted.
func (tx *Tx) finishLane() error {
	if err := tx.setU64(laneNEntries, 0, ptTxLaneCount); err != nil {
		return err
	}
	if err := tx.setU64(laneActive, 0, ptTxLaneClose); err != nil {
		return err
	}
	tx.p.m.Fence(tx.clk, ptTxLaneDrain)
	return nil
}

// rollbackLane applies a lane's undo entries in reverse and clears the lane.
// It is used both by Abort and by Open-time recovery.
func (p *Pool) rollbackLane(clk *sim.Clock, lane int) error {
	base := p.laneOff + int64(lane)*p.laneSize
	hdr, err := p.m.Slice(base, 16)
	if err != nil {
		return err
	}
	p.m.ChargeRead(clk, 16)
	nent := binary.LittleEndian.Uint64(hdr[laneNEntries:])

	// Walk forward collecting entry offsets, then apply in reverse.
	type entry struct{ eoff, off, n int64 }
	entries := make([]entry, 0, nent)
	pos := base + laneEntries
	for i := uint64(0); i < nent; i++ {
		eb, err := p.m.Slice(pos, 16)
		if err != nil {
			return fmt.Errorf("%w: truncated undo log in lane %d", ErrCorrupt, lane)
		}
		off := int64(binary.LittleEndian.Uint64(eb[0:]))
		n := int64(binary.LittleEndian.Uint64(eb[8:]))
		if p.checkRange(off, n) != nil {
			return fmt.Errorf("%w: undo entry [%d,%d) out of pool", ErrCorrupt, off, off+n)
		}
		entries = append(entries, entry{pos, off, n})
		pos += 16 + align8(n)
		if pos > base+p.laneSize {
			return fmt.Errorf("%w: undo log overflow in lane %d", ErrCorrupt, lane)
		}
	}
	for i := len(entries) - 1; i >= 0; i-- {
		e := entries[i]
		img, err := p.m.Slice(e.eoff+16, e.n)
		if err != nil {
			return err
		}
		if err := p.m.Capture(e.off, e.n); err != nil {
			return err
		}
		dst, err := p.m.Slice(e.off, e.n)
		if err != nil {
			return err
		}
		copy(dst, img)
		p.m.ChargeRead(clk, e.n)
		p.m.ChargeWrite(clk, e.n)
		if err := p.m.Persist(clk, e.off, e.n, ptRecUndo); err != nil {
			return err
		}
	}
	p.m.Fence(clk, ptRecDrain)

	// Clear the lane.
	if err := p.m.Capture(base, 16); err != nil {
		return err
	}
	binary.LittleEndian.PutUint64(hdr[laneNEntries:], 0)
	binary.LittleEndian.PutUint64(hdr[laneActive:], 0)
	p.m.ChargeWrite(clk, 16)
	return p.m.Persist(clk, base, 16, ptRecLaneClear)
}

// recover scans all lanes at Open time and rolls back any transaction that
// was active when the crash happened.
func (p *Pool) recover(clk *sim.Clock) error {
	for lane := 0; lane < p.lanes; lane++ {
		base := p.laneOff + int64(lane)*p.laneSize
		hdr, err := p.m.Slice(base, 8)
		if err != nil {
			return err
		}
		p.m.ChargeRead(clk, 8)
		if binary.LittleEndian.Uint64(hdr) == 0 {
			continue
		}
		if err := p.rollbackLane(clk, lane); err != nil {
			return err
		}
		p.stats.recovered.Add(1)
	}
	return nil
}
