package pmdk

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sync"

	"pmemcpy/internal/sim"
)

// Hashtable is the persistent chained hashtable the paper uses for pMEMCPY's
// flat metadata namespace: "Metadata is stored in a flat namespace using a
// hashtable with chaining. This utilizes the high parallelism and random
// access characteristics of PMEM."
//
// Keys and values are byte strings. A value lives in its own allocator block.
// Every mutation of a key is one Update — bucket lock, one transaction, one
// lookup — ended by one Finish: Put is Update + Commit, Delete is Update +
// Delete. A new value takes one of three forms: a new key links a
// freshly built entry; a value of the old length is rewritten in place under
// one undo entry; any other value goes to a new block the entry's vlen|value
// then swing to, the old block freed in the same transaction. All three are
// old-or-new under crash. Buckets are protected by per-bucket persistent
// locks, so ranks operating on different keys proceed in parallel.
//
// A header is one access. Every walk — lookup, update, Range, Verify — reads
// each entry it visits once (readEntry): the 40-byte header below, and with it
// the key when the walk wants it, since the key is contiguous with the header.
// What the walk read of the entry it stopped on travels with it (probe); no
// caller goes back to the entry for vlen|value or next. A caller that knows
// where a key's entry was last found passes it as a hint (UpdateAt,
// GetRefAt): an entry that still holds the key is one access instead of the
// walk, and any other hint is walked past, so the chains a hint skips are
// exactly the chains a walk would read.
//
// Layout of the table header block (PMID t):
//
//	0:  magic    uint64
//	8:  nbuckets uint64
//	16: buckets  [nbuckets]uint64 (entry PMIDs, 0 = empty)
//
// Layout of an entry block:
//
//	0:  next  uint64 (PMID)
//	8:  hash  uint64
//	16: klen  uint64
//	24: vlen  uint64
//	32: value uint64 (PMID of value block)
//	40: key   [klen]byte
type Hashtable struct {
	p        *Pool
	head     PMID
	nbuckets uint64
}

const (
	htMagic       = 0x504D48544142
	htHeaderSize  = 16
	entryNext     = 0
	entryHash     = 8
	entryKlen     = 16
	entryVlen     = 24
	entryVal      = 32
	entryKeyStart = 40
)

// DefaultBuckets is the bucket count used by pMEMCPY's metadata store.
const DefaultBuckets = 1 << 12

// CreateHashtable allocates and initializes a hashtable with nbuckets
// buckets inside tx. The returned PMID must be published (e.g. stored in the
// pool root) by the caller before tx commits.
func CreateHashtable(tx *Tx, nbuckets uint64) (PMID, error) {
	if nbuckets == 0 || nbuckets&(nbuckets-1) != 0 {
		return Null, fmt.Errorf("pmdk: nbuckets must be a power of two, got %d", nbuckets)
	}
	t, err := tx.live("CreateHashtable")
	if err != nil {
		return Null, err
	}
	size := int64(htHeaderSize) + int64(nbuckets)*8
	id, err := t.p.alloc(t, size)
	if err != nil {
		return Null, err
	}
	// The block is fresh and unpublished: initialize it with plain durable
	// stores; if tx rolls back, the block is unreachable.
	hdr := make([]byte, htHeaderSize)
	binary.LittleEndian.PutUint64(hdr[0:], htMagic)
	binary.LittleEndian.PutUint64(hdr[8:], nbuckets)
	if err := t.p.StoreBytesAt(t.clk, id, hdr, false, ptHTFormat); err != nil {
		return Null, err
	}
	zero := make([]byte, nbuckets*8)
	if err := t.p.StoreBytesAt(t.clk, id+htHeaderSize, zero, false, ptHTFormat); err != nil {
		return Null, err
	}
	if err := t.p.m.Persist(t.clk, int64(id), size, ptHTFormat); err != nil {
		return Null, err
	}
	return id, nil
}

// FormatPool is the pool-format bootstrap of a freshly created pool: in one
// transaction of its own it creates the pool's hashtable and publishes the
// table's PMID in the pool root, where a reopen finds it.
func FormatPool(clk *sim.Clock, p *Pool, nbuckets uint64) (PMID, error) {
	tx, err := p.Begin(clk)
	if err != nil {
		return Null, err
	}
	id, err := CreateHashtable(tx, nbuckets)
	if err == nil {
		root, _ := p.Root()
		err = tx.WriteU64(root, uint64(id))
	}
	if err != nil {
		tx.Abort() // err is the one to report; a failed rollback is recovery's at the next Open
		return Null, err
	}
	return id, tx.Commit()
}

// RootHashtable attaches to the hashtable FormatPool published in the pool
// root.
func (p *Pool) RootHashtable(clk *sim.Clock) (*Hashtable, error) {
	id, err := p.ReadU64(clk, PMID(p.rootOff))
	if err != nil {
		return nil, err
	}
	return OpenHashtable(clk, p, PMID(id))
}

// readTableHeader reads the table header's magic|nbuckets as one access.
func readTableHeader(clk *sim.Clock, p *Pool, id PMID) (magic, nbuckets uint64, err error) {
	b, err := p.read(clk, id, htHeaderSize)
	if err != nil {
		return 0, 0, err
	}
	return word(b, 0), word(b, 1), nil
}

// OpenHashtable attaches to an existing hashtable at id.
func OpenHashtable(clk *sim.Clock, p *Pool, id PMID) (*Hashtable, error) {
	magic, nb, err := readTableHeader(clk, p, id)
	if err != nil {
		return nil, err
	}
	if magic != htMagic {
		return nil, fmt.Errorf("%w: hashtable magic %#x", ErrCorrupt, magic)
	}
	if nb == 0 || nb&(nb-1) != 0 {
		return nil, fmt.Errorf("%w: hashtable bucket count %d", ErrCorrupt, nb)
	}
	return &Hashtable{p: p, head: id, nbuckets: nb}, nil
}

// HashKey returns the 64-bit FNV-1a hash of key: the table's bucket and
// stored hash, and core's pool placement. A key is hashed once per call
// into the table and the hash is handed down.
func HashKey[K ~string | ~[]byte](key K) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= 1099511628211
	}
	return h
}

func (h *Hashtable) bucketOff(hash uint64) PMID {
	return h.head + htHeaderSize + PMID((hash&(h.nbuckets-1))*8)
}

// entryHeader is an entry's 40-byte header, decoded.
type entryHeader struct {
	next, val  PMID
	hash, klen uint64
	vlen       int64
}

// readEntry reads entry e as one access: its header and, when withKey says so
// of the decoded header, the klen key bytes that follow it — one ChargeRead of
// 40 or 40+klen. key is the mapped bytes, nil when the access stopped at the
// header.
func (h *Hashtable) readEntry(clk *sim.Clock, e PMID, withKey func(entryHeader) bool) (hd entryHeader, key []byte, err error) {
	b, err := h.p.Slice(e, entryKeyStart) // decoded to size the access; charged once, below
	if err != nil {
		return hd, nil, err
	}
	hd = decodeEntry(b)
	n, want := int64(entryKeyStart), withKey(hd)
	if want {
		// Clamped so a damaged klen fails the range check below, never wraps.
		n += int64(min(hd.klen, uint64(h.p.m.Len())))
	}
	if b, err = h.p.read(clk, e, n); err != nil {
		return hd, nil, err
	}
	if want {
		key = b[entryKeyStart:]
	}
	return hd, key, nil
}

// decodeEntry decodes the 40-byte entry header at the start of b.
func decodeEntry(b []byte) entryHeader {
	return entryHeader{
		next: PMID(word(b, entryNext/8)), val: PMID(word(b, entryVal/8)),
		hash: word(b, entryHash/8), klen: word(b, entryKlen/8),
		vlen: int64(word(b, entryVlen/8)),
	}
}

// anyKey is the withKey of a walk that enumerates: every entry's key is read.
func anyKey(entryHeader) bool { return true }

// probe is where a lookup of key ended and what it read there.
type probe struct {
	entry PMID  // the key's entry; Null when absent
	link  PMID  // the slot that points at entry (when absent, the tail slot, holding 0); Null when a hint found entry
	next  PMID  // entry's successor: what link takes when entry is unlinked
	val   PMID  // entry's value block
	vlen  int64 // and the value's length
}

// probeLocked finds key, whose hash is hash: at the entry the hint at names
// when that entry holds the key (one access), else by walking its chain. The
// caller must hold the bucket lock.
func (h *Hashtable) probeLocked(clk *sim.Clock, key []byte, hash uint64, at PMID) (probe, error) {
	if at != Null {
		if pr, ok := h.hinted(clk, key, hash, at); ok {
			return pr, nil
		}
	}
	return h.findLocked(clk, key, hash, Null)
}

// hinted reads the entry a hint names as ONE access — the allocator's block
// header in front of it, the entry header and, when hash and klen match, the
// key — and returns its probe when the block is allocated and the entry holds
// key: the same compare a walk makes, plus the state word, so a hint to a
// freed entry is never taken. ok is false for every other hint (another key's
// entry, a freed block, a read the pool's range refuses): the caller walks.
func (h *Hashtable) hinted(clk *sim.Clock, key []byte, hash uint64, at PMID) (probe, bool) {
	const lead = blockHeaderSize + entryKeyStart
	b, err := h.p.Slice(at-blockHeaderSize, lead) // decoded to size the access; charged once, below
	if err != nil {
		return probe{}, false
	}
	hd := decodeEntry(b[blockHeaderSize:])
	match := word(b, 1) == stateAlloc && hd.hash == hash && hd.klen == uint64(len(key))
	n := int64(lead)
	if match {
		n += int64(len(key))
	}
	if b, err = h.p.read(clk, at-blockHeaderSize, n); err != nil || !match || !bytes.Equal(b[lead:], key) {
		return probe{}, false
	}
	return probe{entry: at, next: hd.next, val: hd.val, vlen: hd.vlen}, true
}

// findLocked walks the chain of bucket hash, one access per entry visited, to
// the entry that holds key or, when stop is not Null, to entry stop: that one
// is not read, only the link that points at it returned (Unlink's walk, with
// a nil key, which no entry holds). The caller must hold the bucket lock.
func (h *Hashtable) findLocked(clk *sim.Clock, key []byte, hash uint64, stop PMID) (probe, error) {
	link := h.bucketOff(hash)
	cur, err := h.p.ReadU64(clk, link)
	if err != nil {
		return probe{}, err
	}
	for steps := int64(0); cur != 0; steps++ {
		if steps >= h.p.maxBlocks() {
			return probe{}, h.errCycle(hash & (h.nbuckets - 1))
		}
		e := PMID(cur)
		if e == stop {
			return probe{entry: e, link: link}, nil
		}
		hd, kb, err := h.readEntry(clk, e, func(hd entryHeader) bool {
			return key != nil && hd.hash == hash && hd.klen == uint64(len(key))
		})
		if err != nil {
			return probe{}, err
		}
		if kb != nil && bytes.Equal(kb, key) {
			return probe{entry: e, link: link, next: hd.next, val: hd.val, vlen: hd.vlen}, nil
		}
		link, cur = e+entryNext, uint64(hd.next)
	}
	return probe{link: link}, nil
}

func (h *Hashtable) errCycle(bucket uint64) error {
	return fmt.Errorf("%w: hashtable bucket %d chain does not terminate (cycle?)", ErrCorrupt, bucket)
}

// newValueBlock allocates a block, fills it with value, and persists it.
func (h *Hashtable) newValueBlock(clk *sim.Clock, tx *txn, value []byte) (PMID, error) {
	n := int64(len(value))
	if n == 0 {
		n = 8 // allocator minimum payload; vlen records the true size
	}
	vid, err := h.p.alloc(tx, n)
	if err != nil {
		return Null, err
	}
	if len(value) > 0 {
		if err := h.p.StoreBytesAt(clk, vid, value, true, ptHTValue); err != nil {
			return Null, err
		}
	}
	return vid, nil
}

// Update is an open read-modify-write of one key: the bucket is write-locked,
// a transaction is open, and the key has been looked up once. The holder reads
// the old value, stages the new one (Set) or the key's removal (Unlink), may
// add Frees of blocks the old value owned to the same transaction, and ends it
// with exactly one Finish (or Abort). Commit and Delete are a stage and its
// Finish in one call. It is a value, not a callback, so opening one costs the
// per-op path nothing on the Go heap: it holds its transaction's Tx handle by
// value, and it does not keep the key (Set takes it again; the key's hash,
// computed once, rides along), so a caller's []byte(id) stays on its stack.
type Update struct {
	h     *Hashtable
	tx    Tx
	lock  *sync.RWMutex
	hash  uint64 // the key's
	probe        // where the lookup ended: entry is Null when the key is absent
	old   []byte // the old value, mapped
}

// Update opens a read-modify-write of key.
func (h *Hashtable) Update(clk *sim.Clock, key []byte) (Update, error) {
	return h.UpdateAt(clk, key, Null)
}

// UpdateAt is Update with a hint: at is where key's entry was last found
// (Entry, GetRefAt), or Null. A hint whose entry holds the key saves the chain
// walk; any other falls back to it, so a stale hint costs time, never a wrong
// answer.
func (h *Hashtable) UpdateAt(clk *sim.Clock, key []byte, at PMID) (Update, error) {
	if len(key) == 0 {
		return Update{}, fmt.Errorf("pmdk: empty hashtable key")
	}
	h.p.m.Device().Machine().ChargeMetaOp(clk)
	hash := HashKey(key)
	lock := h.p.Lock(h.bucketOff(hash))
	lock.Lock()
	u := Update{h: h, tx: h.p.begin(clk), lock: lock, hash: hash}
	var err error
	if u.probe, err = h.probeLocked(clk, key, hash, at); err == nil && u.entry != Null {
		u.old, err = h.p.Slice(u.val, u.vlen)
	}
	if err != nil {
		return Update{}, u.Finish(err)
	}
	return u, nil
}

// Entry is the key's entry: the one the lookup found (Null when absent), the
// one a successful Set published the value in, Null after a successful
// Unlink. After a committed Finish it is the hint UpdateAt and GetRefAt take.
func (u *Update) Entry() PMID { return u.entry }

// Old returns the key's current value — mapped bytes, valid until Finish or
// Abort — or nil when the key is absent. Each call charges the read.
func (u *Update) Old() []byte {
	u.h.p.m.ChargeRead(u.tx.t.clk, int64(len(u.old)))
	return u.old
}

// OldID returns the value block Old's bytes live in: where an in-place Set
// will write. It is Null exactly when the key is absent — an empty value still
// has a block.
func (u *Update) OldID() PMID { return u.val }

// Free returns block id to the allocator in the update's transaction: it is
// free exactly when the new value is published, and reusable only after. On
// error the caller aborts.
func (u *Update) Free(id PMID) error { return u.h.p.Free(&u.tx, id) }

// freeUndo is the undo-log bytes a Free takes: one entry, a block's state
// word.
const freeUndo = entryHdr + 8

// Frees bounds how many blocks the update can Free besides one Set: what its
// lane has left once the costliest Set is logged — an in-place pre-image of up
// to a quarter of the lane, over 1 KB, where a relinking Set's two
// allocations, link and Free take a few hundred bytes — in Frees of freeUndo
// bytes each. A caller that drops at most this many never meets ErrTxLogFull.
func (u *Update) Frees() int {
	t := u.tx.t
	return int(max(0, t.p.laneSize-laneEntries-t.used-entryHdr-t.p.laneSize/4) / freeUndo)
}

// Abort rolls the update back and releases the bucket.
func (u *Update) Abort() error {
	defer u.lock.Unlock()
	return u.tx.Abort()
}

// Finish ends the update and releases the bucket: when err is nil it commits
// what was staged, Frees included; otherwise it rolls back and returns err.
// Finish(nil) on an update that staged nothing writes nothing.
func (u *Update) Finish(err error) error {
	if err == nil {
		defer u.lock.Unlock()
		return u.tx.Commit()
	}
	if aerr := u.Abort(); aerr != nil {
		return fmt.Errorf("%w (abort failed: %v)", err, aerr)
	}
	return err
}

// Commit publishes value under key — the key Update was opened with — and
// commits the transaction, any Frees included: Set, then Finish. On error the
// update has been rolled back.
func (u *Update) Commit(key, value []byte) error {
	return u.Finish(u.Set(key, value))
}

// Set stages value under key in the update's transaction. The mutation is
// crash-atomic: after recovery the key holds the old value or the new one,
// never a mix. One of three things happens:
//
//   - the key is absent: the entry and its value block are built unpublished,
//     then linked with one logged pointer write;
//   - value is as long as the old one and its pre-image fits a quarter of the
//     lane (and what this transaction has left of it): the value block is
//     pre-imaged and overwritten in place — one undo entry, no allocator
//     traffic. Deciding by size up front keeps ErrTxLogFull off this path;
//   - otherwise a new value block is allocated and filled, vlen|value swing to
//     it under one undo entry, and the old block is freed.
//
// On error the holder ends the update with Finish(err).
func (u *Update) Set(key, value []byte) error {
	h, tx, clk := u.h, &u.tx, u.tx.t.clk
	t, err := tx.live("Set")
	if err != nil {
		return err
	}
	n := int64(len(value))
	if u.entry != Null && n == int64(len(u.old)) && n <= min(h.p.laneSize/4, t.room()) {
		h.p.stats.htInPlace.Add(1)
		return tx.Write(u.val, value)
	}
	vid, err := h.newValueBlock(clk, t, value)
	if err != nil {
		return err
	}
	if u.entry != Null {
		h.p.stats.htRelinked.Add(1)
		err := tx.WriteU64s(u.entry+entryVlen, uint64(n), uint64(vid)) // vlen|value
		if err == nil && u.val != Null {
			err = h.p.free(t, u.val)
		}
		return err
	}
	h.p.stats.htInserted.Add(1)
	eid, err := h.p.alloc(t, int64(entryKeyStart+len(key)))
	if err != nil {
		return err
	}
	ebuf := make([]byte, entryKeyStart+len(key))
	// entryNext stays 0: an absent key was walked for, so u.link is the
	// chain's tail.
	binary.LittleEndian.PutUint64(ebuf[entryHash:], u.hash)
	binary.LittleEndian.PutUint64(ebuf[entryKlen:], uint64(len(key)))
	binary.LittleEndian.PutUint64(ebuf[entryVlen:], uint64(n))
	binary.LittleEndian.PutUint64(ebuf[entryVal:], uint64(vid))
	copy(ebuf[entryKeyStart:], key)
	if err := h.p.StoreBytesAt(clk, eid, ebuf, true, ptHTEntry); err != nil {
		return err
	}
	if err := tx.WriteU64(u.link, uint64(eid)); err != nil {
		return err
	}
	u.entry = eid
	return nil
}

// Unlink stages the key's removal: its predecessor's link takes the entry's
// successor, and the entry and value blocks are freed. An absent key stages
// nothing. An entry found by its hint has no link yet: the chain is walked
// for it, one header access per predecessor. On error the holder ends the
// update with Finish(err).
func (u *Update) Unlink() error {
	if u.entry == Null {
		return nil
	}
	var err error
	if u.link == Null {
		var pr probe
		if pr, err = u.h.findLocked(u.tx.t.clk, nil, u.hash, u.entry); err == nil && pr.entry != u.entry {
			err = fmt.Errorf("%w: entry %d is not in its bucket's chain", ErrCorrupt, u.entry)
		}
		u.link = pr.link
	}
	if err == nil {
		err = u.tx.WriteU64(u.link, uint64(u.next))
	}
	if err == nil && u.val != Null {
		err = u.Free(u.val)
	}
	if err == nil {
		err = u.Free(u.entry)
	}
	if err == nil {
		u.entry = Null
	}
	return err
}

// Delete removes the key and commits: Unlink, then Finish.
func (u *Update) Delete() error { return u.Finish(u.Unlink()) }

// Put inserts or replaces key's value: an Update that ignores the old one.
func (h *Hashtable) Put(clk *sim.Clock, key, value []byte) error {
	u, err := h.Update(clk, key)
	if err != nil {
		return err
	}
	return u.Commit(key, value)
}

// Get returns a copy of key's value, or ok=false if absent. The copy is made
// under the bucket's read lock: a concurrent Put of the same key rewrites the
// value block in place or frees it for reuse, and a reader that holds no
// other lock over the key must never see half of either.
func (h *Hashtable) Get(clk *sim.Clock, key []byte) ([]byte, bool, error) {
	hash := HashKey(key)
	lock := h.p.Lock(h.bucketOff(hash))
	lock.RLock()
	defer lock.RUnlock()
	pr, err := h.getRefLocked(clk, key, hash, Null)
	if err != nil || pr.entry == Null {
		return nil, false, err
	}
	if pr.vlen == 0 {
		return []byte{}, true, nil
	}
	v, err := h.p.ReadBytes(clk, pr.val, pr.vlen)
	if err != nil {
		return nil, false, err
	}
	return v, true, nil
}

// GetRef returns the PMID and length of key's value block without copying or
// charging the value's bytes. The bucket lock is released on return: the caller
// must hold a lock of its own that excludes every Put and Delete of key for as
// long as it dereferences the block (core's whole-value load does, under the
// id's read lock, since the inline record form).
func (h *Hashtable) GetRef(clk *sim.Clock, key []byte) (PMID, int64, bool, error) {
	val, vlen, entry, err := h.GetRefAt(clk, key, Null)
	return val, vlen, entry != Null, err
}

// GetRefAt is GetRef with a hint, as UpdateAt takes one, that also returns
// where it found the key: entry is Null exactly when the key is absent.
func (h *Hashtable) GetRefAt(clk *sim.Clock, key []byte, at PMID) (val PMID, vlen int64, entry PMID, err error) {
	hash := HashKey(key)
	lock := h.p.Lock(h.bucketOff(hash))
	lock.RLock()
	defer lock.RUnlock()
	pr, err := h.getRefLocked(clk, key, hash, at)
	return pr.val, pr.vlen, pr.entry, err
}

// getRefLocked is GetRefAt under the bucket lock the caller holds.
func (h *Hashtable) getRefLocked(clk *sim.Clock, key []byte, hash uint64, at PMID) (probe, error) {
	h.p.m.Device().Machine().ChargeMetaOp(clk)
	return h.probeLocked(clk, key, hash, at)
}

// Delete removes key. It reports whether the key existed.
func (h *Hashtable) Delete(clk *sim.Clock, key []byte) (bool, error) {
	u, err := h.Update(clk, key)
	if err != nil {
		return false, err
	}
	existed := u.entry != Null
	err = u.Delete()
	return existed && err == nil, err
}

// Range calls fn for every entry until fn returns false. The key slice is
// only valid during the call. Buckets are read-locked one at a time, so
// Range sees a consistent view of each chain but not of the whole table.
func (h *Hashtable) Range(clk *sim.Clock, fn func(key []byte, val PMID, vlen int64) bool) error {
	for b := uint64(0); b < h.nbuckets; b++ {
		if more, err := h.rangeBucket(clk, b, fn); err != nil || !more {
			return err
		}
	}
	return nil
}

// rangeBucket is Range over bucket b's chain under its read lock, one access
// per entry (header and key); more is false once fn has asked to stop.
func (h *Hashtable) rangeBucket(clk *sim.Clock, b uint64, fn func(key []byte, val PMID, vlen int64) bool) (more bool, err error) {
	off := h.head + htHeaderSize + PMID(b*8)
	lock := h.p.Lock(off)
	lock.RLock()
	defer lock.RUnlock()
	cur, err := h.p.ReadU64(clk, off)
	if err != nil {
		return false, err
	}
	for steps := int64(0); cur != 0; steps++ {
		if steps >= h.p.maxBlocks() {
			return false, h.errCycle(b)
		}
		hd, key, err := h.readEntry(clk, PMID(cur), anyKey)
		if err != nil {
			return false, err
		}
		if !fn(key, hd.val, hd.vlen) {
			return false, nil
		}
		cur = uint64(hd.next)
	}
	return true, nil
}

// Len counts the entries by walking every chain.
func (h *Hashtable) Len(clk *sim.Clock) (int, error) {
	n := 0
	err := h.Range(clk, func([]byte, PMID, int64) bool { n++; return true })
	return n, err
}
