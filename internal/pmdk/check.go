package pmdk

import (
	"encoding/binary"
	"fmt"

	"pmemcpy/internal/sim"
)

// Structural invariant checking (the pmemfsck core). Verify walks a pool the
// way recovery-time code does — bounded, read-only, trusting nothing — and
// reports every violated invariant instead of stopping at the first, so a
// single crash simulation yields the full damage picture. The checks are
// shared between the cmd/pmemfsck CLI and the crash-point explorer in
// internal/core via the internal/fsck package.

// Violation is one violated invariant.
type Violation struct {
	// Invariant is a stable dotted name of the violated invariant, e.g.
	// "alloc.freelist" or "ht.entry".
	Invariant string
	// Detail is a human-readable description with offsets and values.
	Detail string
}

// String implements fmt.Stringer.
func (v Violation) String() string { return v.Invariant + ": " + v.Detail }

func violatef(vs []Violation, inv, format string, args ...any) []Violation {
	return append(vs, Violation{Invariant: inv, Detail: fmt.Sprintf(format, args...)})
}

// Verify checks the pool's structural invariants: idle lanes (recovery has
// run at Open), sane brk and arena metadata, and terminating free lists of
// correctly-stated blocks. It is read-only and returns one Violation per
// violated invariant.
func (p *Pool) Verify(clk *sim.Clock) []Violation {
	var vs []Violation

	// Shared extent brk within the heap.
	raw, err := p.ReadU64(clk, PMID(p.allocOff))
	if err != nil {
		return violatef(vs, "pool.io", "reading brk: %v", err)
	}
	brk := int64(raw)
	if brk < p.heapOff || brk > p.heapEnd {
		vs = violatef(vs, "alloc.brk", "brk %d outside heap [%d,%d)", brk, p.heapOff, p.heapEnd)
		brk = p.heapEnd // keep later bounds checks meaningful
	}

	// Every lane idle: a pool that finished Open has rolled back or retired
	// every transaction, so no lane's first entry validates; one that does
	// means recovery was skipped or itself crashed.
	for lane := 0; lane < p.lanes; lane++ {
		lb, err := p.m.Slice(p.laneBase(lane), p.laneSize)
		if err != nil {
			return violatef(vs, "pool.io", "reading lane %d: %v", lane, err)
		}
		p.m.ChargeRead(clk, laneEntries+entryHdr)
		if off, n, ok := p.logEntry(lane, lb, laneEntries); ok {
			vs = violatef(vs, "lane.idle", "lane %d holds a live undo log (first entry pre-images [%d,%d))", lane, off, off+n)
		}
	}

	// Arena metadata and free lists.
	maxBlocks := (p.heapEnd-p.heapOff)/minBlock + 1
	for i := range p.arenas {
		a := &p.arenas[i]
		bumpRaw, err := p.ReadU64(clk, a.bumpOff())
		if err != nil {
			return violatef(vs, "pool.io", "reading arena %d bump: %v", i, err)
		}
		limitRaw, err := p.ReadU64(clk, a.limitOff())
		if err != nil {
			return violatef(vs, "pool.io", "reading arena %d limit: %v", i, err)
		}
		bump, limit := int64(bumpRaw), int64(limitRaw)
		switch {
		case bump == 0 && limit == 0:
			// No extent reserved yet.
		case bump > limit:
			vs = violatef(vs, "alloc.arena", "arena %d bump %d > limit %d", i, bump, limit)
		case bump < p.heapOff || limit > brk:
			vs = violatef(vs, "alloc.arena",
				"arena %d extent [%d,%d) outside reserved heap [%d,%d)", i, bump, limit, p.heapOff, brk)
		}

		lists := make([]PMID, 0, nSizeClasses+1)
		for c := 0; c < nSizeClasses; c++ {
			lists = append(lists, a.classOff(c))
		}
		lists = append(lists, a.hugeOff())
		for li, listOff := range lists {
			cur, err := p.ReadU64(clk, listOff)
			if err != nil {
				return violatef(vs, "pool.io", "reading arena %d list %d head: %v", i, li, err)
			}
			var steps int64
			for cur != 0 {
				if steps++; steps > maxBlocks {
					vs = violatef(vs, "alloc.freelist",
						"arena %d list %d does not terminate (cycle?)", i, li)
					break
				}
				id := PMID(cur)
				if int64(id) < p.heapOff+blockHeaderSize || int64(id) >= p.heapEnd || id%8 != 0 {
					vs = violatef(vs, "alloc.freelist",
						"arena %d list %d holds bad pointer %d", i, li, id)
					break
				}
				size, state, err := p.blockHeader(clk, id)
				if err != nil {
					vs = violatef(vs, "alloc.freelist",
						"arena %d list %d block %d: unreadable header: %v", i, li, id, err)
					break
				}
				if state != stateFree {
					vs = violatef(vs, "alloc.freestate",
						"free block %d has state %#x, want free", id, state)
					break
				}
				if li < nSizeClasses && size != blockSizeOf(li) {
					vs = violatef(vs, "alloc.freesize",
						"class-%d free block %d has size %d, want %d", li, id, size, blockSizeOf(li))
				}
				if int64(id)-blockHeaderSize+size > p.heapEnd || size < blockHeaderSize+8 {
					vs = violatef(vs, "alloc.freesize",
						"free block %d size %d overflows heap end %d", id, size, p.heapEnd)
					break
				}
				next, err := p.ReadU64(clk, id)
				if err != nil {
					return violatef(vs, "pool.io", "reading free block %d next: %v", id, err)
				}
				cur = next
			}
		}
	}
	return vs
}

// Verify checks the hashtable's structural invariants: a valid header,
// bounded bucket chains, entries that live in allocated blocks with
// consistent hash/klen/vlen fields, value pointers to allocated blocks large
// enough for their recorded length, and no duplicate keys.
func (h *Hashtable) Verify(clk *sim.Clock) []Violation {
	var vs []Violation
	p := h.p

	magic, err := p.ReadU64(clk, h.head)
	if err != nil {
		return violatef(vs, "ht.io", "reading header: %v", err)
	}
	if magic != htMagic {
		return violatef(vs, "ht.header", "magic %#x, want %#x", magic, uint64(htMagic))
	}
	nb, err := p.ReadU64(clk, h.head+8)
	if err != nil {
		return violatef(vs, "ht.io", "reading bucket count: %v", err)
	}
	if nb == 0 || nb&(nb-1) != 0 || nb != h.nbuckets {
		return violatef(vs, "ht.header", "bucket count %d (opened with %d)", nb, h.nbuckets)
	}

	maxEntries := uint64((p.heapEnd-p.heapOff)/minBlock + 1)
	seen := make(map[string]PMID)
	for b := uint64(0); b < nb; b++ {
		bucket := h.head + htHeaderSize + PMID(8*b)
		cur, err := p.ReadU64(clk, bucket)
		if err != nil {
			return violatef(vs, "ht.io", "reading bucket %d: %v", b, err)
		}
		var steps uint64
		for cur != 0 {
			if steps++; steps > maxEntries {
				vs = violatef(vs, "ht.chain", "bucket %d chain does not terminate (cycle?)", b)
				break
			}
			e := PMID(cur)
			usable, err := p.UsableSize(clk, e)
			if err != nil {
				vs = violatef(vs, "ht.entry", "bucket %d entry %d not an allocated block: %v", b, e, err)
				break
			}
			if usable < entryKeyStart {
				vs = violatef(vs, "ht.entry", "entry %d block too small (%d bytes)", e, usable)
				break
			}
			hdr, err := p.ReadBytes(clk, e, entryKeyStart)
			if err != nil {
				return violatef(vs, "ht.io", "reading entry %d: %v", e, err)
			}
			hash := binary.LittleEndian.Uint64(hdr[entryHash:])
			klen := binary.LittleEndian.Uint64(hdr[entryKlen:])
			vlen := binary.LittleEndian.Uint64(hdr[entryVlen:])
			vid := binary.LittleEndian.Uint64(hdr[entryVal:])
			if klen == 0 || int64(klen) > usable-entryKeyStart {
				vs = violatef(vs, "ht.entry", "entry %d klen %d exceeds block payload %d",
					e, klen, usable-entryKeyStart)
				break
			}
			key, err := p.ReadBytes(clk, e+entryKeyStart, int64(klen))
			if err != nil {
				return violatef(vs, "ht.io", "reading entry %d key: %v", e, err)
			}
			if got := HashKey(key); got != hash {
				vs = violatef(vs, "ht.hash", "entry %d (key %q) stores hash %#x, want %#x",
					e, key, hash, got)
			} else if hash&(nb-1) != b {
				vs = violatef(vs, "ht.bucket", "entry %d (key %q) hashed to bucket %d, found in %d",
					e, key, hash&(nb-1), b)
			}
			if prev, dup := seen[string(key)]; dup {
				vs = violatef(vs, "ht.dup", "key %q in entries %d and %d", key, prev, e)
			} else {
				seen[string(key)] = e
			}
			if vid == 0 {
				if vlen > 0 {
					vs = violatef(vs, "ht.value", "entry %d (key %q) has vlen %d but no value block",
						e, key, vlen)
				}
			} else {
				vUsable, err := p.UsableSize(clk, PMID(vid))
				if err != nil {
					vs = violatef(vs, "ht.value", "entry %d (key %q) value block %d: %v", e, key, vid, err)
				} else if int64(vlen) > vUsable {
					vs = violatef(vs, "ht.value", "entry %d (key %q) vlen %d exceeds value block payload %d",
						e, key, vlen, vUsable)
				}
			}
			next := binary.LittleEndian.Uint64(hdr[entryNext:])
			cur = next
		}
	}
	return vs
}
