package pmdk

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"

	"pmemcpy/internal/sim"
)

// Hashtable is the persistent chained hashtable the paper uses for pMEMCPY's
// flat metadata namespace: "Metadata is stored in a flat namespace using a
// hashtable with chaining. This utilizes the high parallelism and random
// access characteristics of PMEM."
//
// Keys and values are byte strings. Values always live in their own
// allocator block; replacing a value allocates the new block first and then
// swaps the entry's value pointer inside a transaction, so updates are
// atomic under crash. Buckets are protected by per-bucket persistent locks,
// so ranks operating on different keys proceed in parallel.
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
	size := int64(htHeaderSize) + int64(nbuckets)*8
	id, err := tx.p.Alloc(tx, size)
	if err != nil {
		return Null, err
	}
	// The block is fresh and unpublished: initialize it with plain durable
	// stores; if tx rolls back, the block is unreachable.
	hdr := make([]byte, htHeaderSize)
	binary.LittleEndian.PutUint64(hdr[0:], htMagic)
	binary.LittleEndian.PutUint64(hdr[8:], nbuckets)
	if err := tx.p.StoreBytesAt(tx.clk, id, hdr, false, ptHTFormat); err != nil {
		return Null, err
	}
	zero := make([]byte, nbuckets*8)
	if err := tx.p.StoreBytesAt(tx.clk, id+htHeaderSize, zero, false, ptHTFormat); err != nil {
		return Null, err
	}
	if err := tx.p.m.Persist(tx.clk, int64(id), size, ptHTFormat); err != nil {
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

// OpenHashtable attaches to an existing hashtable at id.
func OpenHashtable(clk *sim.Clock, p *Pool, id PMID) (*Hashtable, error) {
	magic, err := p.ReadU64(clk, id)
	if err != nil {
		return nil, err
	}
	if magic != htMagic {
		return nil, fmt.Errorf("%w: hashtable magic %#x", ErrCorrupt, magic)
	}
	nb, err := p.ReadU64(clk, id+8)
	if err != nil {
		return nil, err
	}
	if nb == 0 || nb&(nb-1) != 0 {
		return nil, fmt.Errorf("%w: hashtable bucket count %d", ErrCorrupt, nb)
	}
	return &Hashtable{p: p, head: id, nbuckets: nb}, nil
}

// HashKey returns the FNV-1a hash the table uses; exported for tools.
func HashKey(key []byte) uint64 {
	f := fnv.New64a()
	f.Write(key)
	return f.Sum64()
}

func (h *Hashtable) bucketOff(hash uint64) PMID {
	return h.head + htHeaderSize + PMID((hash&(h.nbuckets-1))*8)
}

// findLocked walks the chain of key's bucket and returns the entry PMID and
// its predecessor link offset (the bucket slot or the previous entry's next
// field). The caller must hold the bucket lock.
func (h *Hashtable) findLocked(clk *sim.Clock, key []byte) (entry, prevLink PMID, err error) {
	hash := HashKey(key)
	link := h.bucketOff(hash)
	cur, err := h.p.ReadU64(clk, link)
	if err != nil {
		return Null, Null, err
	}
	for cur != 0 {
		e := PMID(cur)
		eh, err := h.p.ReadU64(clk, e+entryHash)
		if err != nil {
			return Null, Null, err
		}
		if eh == hash {
			klen, err := h.p.ReadU64(clk, e+entryKlen)
			if err != nil {
				return Null, Null, err
			}
			if klen == uint64(len(key)) {
				kb, err := h.p.Slice(e+entryKeyStart, int64(klen))
				if err != nil {
					return Null, Null, err
				}
				h.p.m.ChargeRead(clk, int64(klen))
				if bytes.Equal(kb, key) {
					return e, link, nil
				}
			}
		}
		link = e + entryNext
		cur, err = h.p.ReadU64(clk, link)
		if err != nil {
			return Null, Null, err
		}
	}
	return Null, link, nil
}

// newValueBlock allocates a block, fills it with value, and persists it.
func (h *Hashtable) newValueBlock(clk *sim.Clock, tx *Tx, value []byte) (PMID, error) {
	n := int64(len(value))
	if n == 0 {
		n = 8 // allocator minimum payload; vlen records the true size
	}
	vid, err := h.p.Alloc(tx, n)
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

// Put inserts or replaces key's value. The mutation is crash-atomic: either
// the old value or the new value is visible after recovery, never a mix.
func (h *Hashtable) Put(clk *sim.Clock, key, value []byte) error {
	if len(key) == 0 {
		return fmt.Errorf("pmdk: empty hashtable key")
	}
	h.p.m.Device().Machine().ChargeMetaOp(clk)
	bucket := h.bucketOff(HashKey(key))
	lock := h.p.Lock(bucket)
	lock.Lock()
	defer lock.Unlock()

	tx, err := h.p.Begin(clk)
	if err != nil {
		return err
	}
	abort := func(err error) error {
		if aerr := tx.Abort(); aerr != nil {
			return fmt.Errorf("%w (abort failed: %v)", err, aerr)
		}
		return err
	}

	e, link, err := h.findLocked(clk, key)
	if err != nil {
		return abort(err)
	}
	vid, err := h.newValueBlock(clk, tx, value)
	if err != nil {
		return abort(err)
	}
	if e != Null {
		// Replace: swap the value pointer and size, then free the old block.
		oldVal, err := h.p.ReadU64(clk, e+entryVal)
		if err != nil {
			return abort(err)
		}
		if err := tx.WriteU64s(e+entryVlen, uint64(len(value)), uint64(vid)); err != nil { // vlen|value
			return abort(err)
		}
		if oldVal != 0 {
			if err := h.p.Free(tx, PMID(oldVal)); err != nil {
				return abort(err)
			}
		}
		return tx.Commit()
	}

	// Insert: build the entry unpublished, then link it with one logged
	// pointer write.
	head, err := h.p.ReadU64(clk, link)
	if err != nil {
		return abort(err)
	}
	eid, err := h.p.Alloc(tx, int64(entryKeyStart+len(key)))
	if err != nil {
		return abort(err)
	}
	ebuf := make([]byte, entryKeyStart+len(key))
	binary.LittleEndian.PutUint64(ebuf[entryNext:], head)
	binary.LittleEndian.PutUint64(ebuf[entryHash:], HashKey(key))
	binary.LittleEndian.PutUint64(ebuf[entryKlen:], uint64(len(key)))
	binary.LittleEndian.PutUint64(ebuf[entryVlen:], uint64(len(value)))
	binary.LittleEndian.PutUint64(ebuf[entryVal:], uint64(vid))
	copy(ebuf[entryKeyStart:], key)
	if err := h.p.StoreBytesAt(clk, eid, ebuf, true, ptHTEntry); err != nil {
		return abort(err)
	}
	if err := tx.WriteU64(link, uint64(eid)); err != nil {
		return abort(err)
	}
	return tx.Commit()
}

// Get returns a copy of key's value, or ok=false if absent.
func (h *Hashtable) Get(clk *sim.Clock, key []byte) ([]byte, bool, error) {
	id, n, ok, err := h.GetRef(clk, key)
	if err != nil || !ok {
		return nil, ok, err
	}
	if n == 0 {
		return []byte{}, true, nil
	}
	v, err := h.p.ReadBytes(clk, id, n)
	if err != nil {
		return nil, false, err
	}
	return v, true, nil
}

// GetRef returns the PMID and length of key's value block without copying,
// the zero-copy lookup path pMEMCPY's load uses.
func (h *Hashtable) GetRef(clk *sim.Clock, key []byte) (PMID, int64, bool, error) {
	h.p.m.Device().Machine().ChargeMetaOp(clk)
	bucket := h.bucketOff(HashKey(key))
	lock := h.p.Lock(bucket)
	lock.RLock()
	defer lock.RUnlock()

	e, _, err := h.findLocked(clk, key)
	if err != nil || e == Null {
		return Null, 0, false, err
	}
	vlen, err := h.p.ReadU64(clk, e+entryVlen)
	if err != nil {
		return Null, 0, false, err
	}
	vid, err := h.p.ReadU64(clk, e+entryVal)
	if err != nil {
		return Null, 0, false, err
	}
	return PMID(vid), int64(vlen), true, nil
}

// Delete removes key. It reports whether the key existed.
func (h *Hashtable) Delete(clk *sim.Clock, key []byte) (bool, error) {
	h.p.m.Device().Machine().ChargeMetaOp(clk)
	bucket := h.bucketOff(HashKey(key))
	lock := h.p.Lock(bucket)
	lock.Lock()
	defer lock.Unlock()

	tx, err := h.p.Begin(clk)
	if err != nil {
		return false, err
	}
	abort := func(err error) (bool, error) {
		if aerr := tx.Abort(); aerr != nil {
			return false, fmt.Errorf("%w (abort failed: %v)", err, aerr)
		}
		return false, err
	}
	e, link, err := h.findLocked(clk, key)
	if err != nil {
		return abort(err)
	}
	if e == Null {
		return false, tx.Commit()
	}
	next, err := h.p.ReadU64(clk, e+entryNext)
	if err != nil {
		return abort(err)
	}
	vid, err := h.p.ReadU64(clk, e+entryVal)
	if err != nil {
		return abort(err)
	}
	if err := tx.WriteU64(link, next); err != nil {
		return abort(err)
	}
	if vid != 0 {
		if err := h.p.Free(tx, PMID(vid)); err != nil {
			return abort(err)
		}
	}
	if err := h.p.Free(tx, e); err != nil {
		return abort(err)
	}
	return true, tx.Commit()
}

// Range calls fn for every entry until fn returns false. The key slice is
// only valid during the call. Buckets are read-locked one at a time, so
// Range sees a consistent view of each chain but not of the whole table.
func (h *Hashtable) Range(clk *sim.Clock, fn func(key []byte, val PMID, vlen int64) bool) error {
	for b := uint64(0); b < h.nbuckets; b++ {
		off := h.head + htHeaderSize + PMID(b*8)
		lock := h.p.Lock(off)
		lock.RLock()
		cur, err := h.p.ReadU64(clk, off)
		if err != nil {
			lock.RUnlock()
			return err
		}
		for cur != 0 {
			e := PMID(cur)
			klen, err := h.p.ReadU64(clk, e+entryKlen)
			if err != nil {
				lock.RUnlock()
				return err
			}
			kb, err := h.p.Slice(e+entryKeyStart, int64(klen))
			if err != nil {
				lock.RUnlock()
				return err
			}
			h.p.m.ChargeRead(clk, int64(klen))
			vlen, err := h.p.ReadU64(clk, e+entryVlen)
			if err != nil {
				lock.RUnlock()
				return err
			}
			vid, err := h.p.ReadU64(clk, e+entryVal)
			if err != nil {
				lock.RUnlock()
				return err
			}
			if !fn(kb, PMID(vid), int64(vlen)) {
				lock.RUnlock()
				return nil
			}
			cur, err = h.p.ReadU64(clk, e+entryNext)
			if err != nil {
				lock.RUnlock()
				return err
			}
		}
		lock.RUnlock()
	}
	return nil
}

// Len counts the entries by walking every chain.
func (h *Hashtable) Len(clk *sim.Clock) (int, error) {
	n := 0
	err := h.Range(clk, func([]byte, PMID, int64) bool { n++; return true })
	return n, err
}
