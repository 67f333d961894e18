package pmdk

import (
	"encoding/binary"
	"errors"
	"fmt"

	"pmemcpy/internal/checksum"
	"pmemcpy/internal/pmem"
	"pmemcpy/internal/sim"
)

// Lane log layout (per lane):
//
//	0:  gen      uint64 (the lane's generation)
//	8:  reserved uint64
//	16: entries  {off uint64, len uint32, crc uint32, preimage [len]byte (8-padded)}...
//
// An entry is valid iff len > 0, it fits in the lane, [off, off+len) lies in
// the pool, and crc is the CRC32C of the lane's current 64-bit generation ‖
// off ‖ len ‖ preimage. The log is the maximal run of valid entries from
// offset 16: no count, no active flag. A torn entry fails its CRC; an entry
// of an earlier transaction was summed under an earlier generation, so
// bumping the generation retires a whole log in one atomic store. (The
// generation enters the sum at full width: a slot deep in a lane can go
// unwritten for more than 2^32 transactions.)
//
// Crash-consistency protocol — one barrier per pre-image (Device.Persist is
// CLWB+SFENCE, so no bare fence follows any persist here):
//  1. Begin takes a lane and touches no persistent state.
//  2. Add writes the pre-image entry and persists it. Only after that may the
//     caller mutate the range. A range this transaction has already pre-imaged
//     is skipped: the first pre-image is the one a rollback must end on.
//  3. Commit persists every mutated range, then stores gen+1 and persists it.
//  4. Recovery and Abort scan the valid run, apply its pre-images in reverse,
//     persisting each, then store gen+1 and persist it.
//
// The generations are mirrored in DRAM (Pool.laneGen), and the mirror is the
// authority while the pool is open: it moves only after the new generation
// is durable, and entries are summed against it.
const (
	laneEntries = 16
	entryHdr    = 16
)

// Tx is an undo-log transaction: a handle on the state of a running
// transaction. A Tx is owned by a single goroutine; the data it protects is
// additionally guarded by the caller's persistent locks.
//
// The transaction's state is the pool's, recycled from one transaction to the
// next (Pool.txFree), so Begin puts nothing on the heap for it, and the
// handle — a pointer and a sequence number — stays on its holder's stack. The
// number is the state's at Begin; finishing the transaction moves it on, so a
// handle used after Commit or Abort fails, and never reaches the next
// transaction the state runs.
type Tx struct {
	t   *txn
	seq uint64
}

// live returns the transaction tx is a handle on, or why it has none: the
// transaction finished (what named the attempt).
func (tx *Tx) live(what string) (*txn, error) {
	if tx.seq != tx.t.seq {
		return nil, fmt.Errorf("pmdk: %s on finished transaction", what)
	}
	return tx.t, nil
}

// Add logs the pre-image of [off, off+n); see txn.Add.
func (tx *Tx) Add(off PMID, n int64) error {
	t, err := tx.live("Add")
	if err != nil {
		return err
	}
	return t.Add(off, n)
}

// Write logs [off, off+len(b)) and overwrites it with b inside the
// transaction.
func (tx *Tx) Write(off PMID, b []byte) error {
	t, err := tx.live("Write")
	if err != nil {
		return err
	}
	return t.Write(off, b)
}

// WriteU64 logs and writes a u64 field inside the transaction.
func (tx *Tx) WriteU64(off PMID, v uint64) error { return tx.WriteU64s(off, v) }

// WriteU64s logs and writes adjacent u64 fields as one range; see
// txn.WriteU64s.
func (tx *Tx) WriteU64s(off PMID, vs ...uint64) error {
	t, err := tx.live("Write")
	if err != nil {
		return err
	}
	return t.WriteU64s(off, vs...)
}

// Commit persists every mutated range and retires the transaction; see
// txn.Commit.
func (tx *Tx) Commit() error {
	t, err := tx.live("Commit")
	if err != nil {
		return fmt.Errorf("pmdk: double Commit/Abort")
	}
	return t.Commit()
}

// Abort rolls the transaction back; see txn.Abort.
func (tx *Tx) Abort() error {
	t, err := tx.live("Abort")
	if err != nil {
		return fmt.Errorf("pmdk: double Commit/Abort")
	}
	return t.Abort()
}

// txn is the state of one running transaction, reset by every Begin that
// takes it.
type txn struct {
	p    *Pool
	clk  *sim.Clock
	lane int
	base int64  // pool offset of this lane's log
	seq  uint64 // transactions this state has run: a Tx of another is stale

	// used is the entry area written so far. An entry counts from the moment
	// its bytes are in the lane, whether or not its persist succeeded: it
	// validates all the same, so a lane with used > 0 must be retired (gen+1)
	// before another transaction may have it.
	used   int64
	ranges []txRange // the pre-imaged ranges, in log order
	regen  bool      // Commit's generation store failed; see rollback

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

	// Inline backing for ranges and held: a store's two transactions log
	// 2-5 ranges each under one arena lock, so neither list reaches the heap.
	rangeBuf [8]txRange
	heldBuf  [2]heldArena
}

type reservedExtent struct {
	a            *arena
	start, limit int64
}

type heldArena struct {
	ar    *arena
	dirty bool
}

// homeArena returns the transaction's home arena — the caller's rank modulo
// the arena count, so every transaction of a rank meets in one arena and what
// one frees the next reuses without stealing — taking its lock (blocking) on
// first use. Blocking is safe here because the transaction holds no other
// arena lock yet.
func (tx *txn) homeArena() *arena {
	if len(tx.held) > 0 {
		return tx.held[0].ar
	}
	a := &tx.p.arenas[tx.clk.Rank%len(tx.p.arenas)]
	a.mu.Lock()
	tx.held = append(tx.held, heldArena{ar: a})
	return a
}

// holdsArena reports whether tx owns a's lock.
func (tx *txn) holdsArena(a *arena) bool {
	for i := range tx.held {
		if tx.held[i].ar == a {
			return true
		}
	}
	return false
}

// holdArena records an arena lock acquired by the caller (via TryLock).
func (tx *txn) holdArena(a *arena) {
	tx.held = append(tx.held, heldArena{ar: a})
}

// markArenaDirty flags a as mutated by this transaction; its lock is then
// pinned until commit/abort.
func (tx *txn) markArenaDirty(a *arena) {
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
func (tx *txn) releaseArenaIfClean(a *arena) {
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

type txRange struct{ off, n int64 }

// Begin opens a transaction, blocking until a lane is free. It touches no
// persistent state — the first device access of a transaction is its first
// Add — and cannot fail; the error result is what its callers are written to.
func (p *Pool) Begin(clk *sim.Clock) (*Tx, error) {
	tx := p.begin(clk)
	return &tx, nil
}

// begin takes a free lane and a free transaction state and starts a
// transaction. It is kept out of line so that Begin inlines into its caller,
// whose stack then holds the handle Begin returns a pointer to.
//
//go:noinline
func (p *Pool) begin(clk *sim.Clock) Tx {
	lane := <-p.laneFree
	var t *txn
	select {
	case t = <-p.txFree:
	default:
		t = new(txn)
	}
	*t = txn{p: p, clk: clk, lane: lane, base: p.laneBase(lane), seq: t.seq}
	t.ranges, t.held = t.rangeBuf[:0], t.heldBuf[:0]
	p.stats.transactions.Add(1)
	return Tx{t: t, seq: t.seq}
}

func (p *Pool) laneBase(lane int) int64 { return p.laneOff + int64(lane)*p.laneSize }

// entryCRC sums the entry eb, as it sits in the lane with an n-byte pre-image,
// under the lane's generation. It reads only bytes already in the mapping or
// in the Pool: a header assembled on the stack would escape into the hash
// call, one heap allocation per logged range.
func (p *Pool) entryCRC(lane int, eb []byte, n int64) uint32 {
	c := checksum.Update(0, p.laneGen[lane][:])
	c = checksum.Update(c, eb[:12])
	return checksum.Update(c, eb[entryHdr:entryHdr+n])
}

// logEntry decodes the entry at position pos of a lane's bytes lb and reports
// whether it is valid (see the layout comment).
func (p *Pool) logEntry(lane int, lb []byte, pos int64) (off, n int64, ok bool) {
	if pos+entryHdr > int64(len(lb)) {
		return 0, 0, false
	}
	off = int64(binary.LittleEndian.Uint64(lb[pos:]))
	n = int64(binary.LittleEndian.Uint32(lb[pos+8:]))
	if n == 0 || pos+entryHdr+align8(n) > int64(len(lb)) || p.checkRange(off, n) != nil {
		return 0, 0, false
	}
	eb := lb[pos : pos+entryHdr+n]
	return off, n, p.entryCRC(lane, eb, n) == binary.LittleEndian.Uint32(eb[12:])
}

// storeGen writes generation g into the lane's header and persists it.
func (p *Pool) storeGen(clk *sim.Clock, lane int, g uint64, pt pmem.PointID) error {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], g)
	return p.StoreBytesAt(clk, PMID(p.laneBase(lane)), b[:], true, pt)
}

// retireLane stores gen+1 — one atomic 8-byte store, one persist — after
// which no entry in the lane validates. The mirror follows the media.
func (p *Pool) retireLane(clk *sim.Clock, lane int, pt pmem.PointID) error {
	g := binary.LittleEndian.Uint64(p.laneGen[lane][:]) + 1
	if err := p.storeGen(clk, lane, g, pt); err != nil {
		return err
	}
	binary.LittleEndian.PutUint64(p.laneGen[lane][:], g)
	return nil
}

// Add logs the pre-image of [off, off+n) so the range can be rolled back if
// the transaction aborts or the machine crashes before Commit. It must be
// called before the range is mutated. A range lying inside one this
// transaction has already logged costs nothing: the earlier pre-image wins.
func (tx *txn) Add(off PMID, n int64) error {
	if err := tx.p.checkRange(int64(off), n); err != nil {
		return err
	}
	if n == 0 {
		return nil
	}
	for _, r := range tx.ranges {
		if r.off <= int64(off) && int64(off)+n <= r.off+r.n {
			tx.p.stats.undoCovered.Add(1)
			return nil
		}
	}
	entrySize := entryHdr + align8(n)
	if laneEntries+tx.used+entrySize > tx.p.laneSize {
		return fmt.Errorf("%w: need %d more bytes in lane of %d",
			ErrTxLogFull, entrySize, tx.p.laneSize)
	}
	eoff := tx.base + laneEntries + tx.used
	m := tx.p.m
	if err := m.Capture(eoff, entrySize); err != nil {
		return err
	}
	eb, err := m.Slice(eoff, entrySize)
	if err != nil {
		return err
	}
	src, err := m.Slice(int64(off), n)
	if err != nil {
		return err
	}
	binary.LittleEndian.PutUint64(eb[0:], uint64(off))
	binary.LittleEndian.PutUint32(eb[8:], uint32(n))
	copy(eb[entryHdr:], src)
	binary.LittleEndian.PutUint32(eb[12:], tx.p.entryCRC(tx.lane, eb, n))
	tx.used += entrySize
	m.ChargeRead(tx.clk, n)
	m.ChargeWrite(tx.clk, entrySize)
	if err := m.Persist(tx.clk, eoff, entrySize, ptTxLogEntry); err != nil {
		return err
	}
	// Capture the to-be-mutated range so the crash simulator can exercise
	// partial persistence of the mutation itself.
	if err := m.Capture(int64(off), n); err != nil {
		return err
	}
	tx.ranges = append(tx.ranges, txRange{int64(off), n})
	return nil
}

// logged pre-images [off, off+n) and returns the mapped range, charged as
// written, for the caller to overwrite.
func (tx *txn) logged(off PMID, n int64) ([]byte, error) {
	if err := tx.Add(off, n); err != nil {
		return nil, err
	}
	tx.p.m.ChargeWrite(tx.clk, n)
	return tx.p.m.Slice(int64(off), n)
}

// Write logs [off, off+len(b)) and overwrites it with b inside the
// transaction.
func (tx *txn) Write(off PMID, b []byte) error {
	dst, err := tx.logged(off, int64(len(b)))
	copy(dst, b)
	return err
}

// room is the largest pre-image the lane can still take in one entry.
func (tx *txn) room() int64 { return (tx.p.laneSize - laneEntries - tx.used - entryHdr) &^ 7 }

// WriteU64 logs and writes a u64 field inside the transaction.
func (tx *txn) WriteU64(off PMID, v uint64) error { return tx.WriteU64s(off, v) }

// WriteU64s logs and writes adjacent u64 fields as one range: one pre-image
// and one commit flush for words that always change together (a block
// header's size|state, a free block's state|next).
func (tx *txn) WriteU64s(off PMID, vs ...uint64) error {
	b, err := tx.logged(off, int64(8*len(vs)))
	if err != nil {
		return err
	}
	for i, v := range vs {
		binary.LittleEndian.PutUint64(b[8*i:], v)
	}
	return nil
}

// Commit persists every mutated range and retires the transaction. A Commit
// that returns an error has rolled the transaction back exactly as Abort
// does: either way the lane and every arena lock are released.
func (tx *txn) Commit() error {
	err := tx.persistRanges()
	if err == nil && tx.used > 0 {
		err = tx.p.retireLane(tx.clk, tx.lane, ptTxLaneClose)
		tx.regen = err != nil
	}
	if err == nil {
		tx.finish(true)
		return nil
	}
	if aerr := tx.Abort(); aerr != nil && !errors.Is(aerr, pmem.ErrFailed) {
		return fmt.Errorf("%w (rollback failed: %v)", err, aerr)
	}
	return err
}

func (tx *txn) persistRanges() error {
	for _, r := range tx.ranges {
		if err := tx.p.m.Persist(tx.clk, r.off, r.n, ptTxCommitData); err != nil {
			return err
		}
	}
	return nil
}

// Abort rolls the transaction back by applying its pre-images in reverse.
// The transaction is finished whatever Abort returns. On a dead device
// (pmem.ErrFailed) nothing is undone in software — the power cut decides what
// survived and the next Open recovers — and only the DRAM side is released.
// If the rollback fails on a live device the lane still holds a live log, so
// it is withheld from reuse and left to the next Open.
func (tx *txn) Abort() error {
	err := tx.rollback()
	if err == nil {
		tx.p.stats.aborts.Add(1)
	}
	tx.finish(err == nil || errors.Is(err, pmem.ErrFailed))
	return err
}

func (tx *txn) rollback() error {
	if tx.used > 0 {
		if tx.regen {
			// Commit's gen+1 may or may not have reached the media. The old
			// generation goes back first: a half-applied rollback must never
			// meet a bumped generation on media, which would disown its log.
			g := binary.LittleEndian.Uint64(tx.p.laneGen[tx.lane][:])
			if err := tx.p.storeGen(tx.clk, tx.lane, g, ptTxLaneClose); err != nil {
				return err
			}
		}
		if err := tx.p.rollbackLane(tx.clk, tx.lane); err != nil {
			return err
		}
	}
	// The rollback reset arena bump/limit words to their previous extents;
	// push any extents this transaction reserved onto free lists so clean
	// aborts do not leak heap (their arenas are still locked here).
	return tx.returnExtents()
}

// finish ends the transaction in DRAM: every arena lock is dropped and, when
// its log is retired (or the device is dead), the lane goes back to the pool.
func (tx *txn) finish(recycle bool) {
	tx.seq++ // every handle on this transaction is stale from here on
	tx.p.stats.undoEntries.Add(int64(len(tx.ranges)))
	tx.p.stats.undoBytes.Add(tx.used)
	for i := range tx.held {
		tx.held[i].ar.mu.Unlock()
	}
	tx.held = nil
	if recycle {
		tx.p.laneFree <- tx.lane
	}
	// At most one state per lane is ever out, so the list has room.
	select {
	case tx.p.txFree <- tx:
	default:
	}
}

// rollbackLane applies a lane's undo entries in reverse and retires the
// lane. It is used both by Abort and by Open-time recovery. Nothing here is
// sized by lane content: the run is walked entry by validated entry.
func (p *Pool) rollbackLane(clk *sim.Clock, lane int) error {
	lb, err := p.m.Slice(p.laneBase(lane), p.laneSize)
	if err != nil {
		return err
	}
	type entry struct{ pos, off, n int64 }
	var buf [8]entry
	entries := buf[:0]
	for pos := int64(laneEntries); ; {
		off, n, ok := p.logEntry(lane, lb, pos)
		if !ok {
			break
		}
		p.m.ChargeRead(clk, entryHdr+n)
		entries = append(entries, entry{pos, off, n})
		pos += entryHdr + align8(n)
	}
	for i := len(entries) - 1; i >= 0; i-- {
		e := entries[i]
		if err := p.m.Capture(e.off, e.n); err != nil {
			return err
		}
		dst, err := p.m.Slice(e.off, e.n)
		if err != nil {
			return err
		}
		copy(dst, lb[e.pos+entryHdr:][:e.n])
		p.m.ChargeWrite(clk, e.n)
		if err := p.m.Persist(clk, e.off, e.n, ptRecUndo); err != nil {
			return err
		}
	}
	return p.retireLane(clk, lane, ptRecLaneClear)
}

// recover scans all lanes at Open time, loads their generations, and rolls
// back any lane whose first entry validates: a transaction that was active
// when the crash happened.
func (p *Pool) recover(clk *sim.Clock) error {
	for lane := 0; lane < p.lanes; lane++ {
		lb, err := p.m.Slice(p.laneBase(lane), p.laneSize)
		if err != nil {
			return err
		}
		p.m.ChargeRead(clk, laneEntries+entryHdr)
		copy(p.laneGen[lane][:], lb)
		if _, _, ok := p.logEntry(lane, lb, laneEntries); !ok {
			continue
		}
		if err := p.rollbackLane(clk, lane); err != nil {
			return err
		}
		p.stats.recovered.Add(1)
	}
	return nil
}
