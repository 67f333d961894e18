package pmdk

import (
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
	for i := range p.arenas {
		a := &p.arenas[i]
		bl, err := p.read(clk, a.bumpOff(), 16)
		if err != nil {
			return violatef(vs, "pool.io", "reading arena %d bump|limit: %v", i, err)
		}
		bump, limit := int64(word(bl, 0)), int64(word(bl, 1))
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
				if steps++; steps > p.maxBlocks() {
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
				b, err := p.blockWords(clk, id, 3) // size|state|next
				if err != nil {
					vs = violatef(vs, "alloc.freelist",
						"arena %d list %d block %d: unreadable header: %v", i, li, id, err)
					break
				}
				size, state := int64(word(b, 0)), word(b, 1)
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
				cur = word(b, 2)
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

	magic, nb, err := readTableHeader(clk, p, h.head)
	if err != nil {
		return violatef(vs, "ht.io", "reading header: %v", err)
	}
	if magic != htMagic {
		return violatef(vs, "ht.header", "magic %#x, want %#x", magic, uint64(htMagic))
	}
	if nb == 0 || nb&(nb-1) != 0 || nb != h.nbuckets {
		return violatef(vs, "ht.header", "bucket count %d (opened with %d)", nb, h.nbuckets)
	}

	seen := make(map[string]PMID)
	for b := uint64(0); b < nb; b++ {
		bucket := h.head + htHeaderSize + PMID(8*b)
		cur, err := p.ReadU64(clk, bucket)
		if err != nil {
			return violatef(vs, "ht.io", "reading bucket %d: %v", b, err)
		}
		var steps int64
		for cur != 0 {
			if steps++; steps > p.maxBlocks() {
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
			// Header and key in one access; a klen the block cannot hold stops
			// the access at the header.
			hd, key, err := h.readEntry(clk, e, func(hd entryHeader) bool {
				return hd.klen != 0 && hd.klen <= uint64(usable-entryKeyStart)
			})
			if err != nil {
				return violatef(vs, "ht.io", "reading entry %d: %v", e, err)
			}
			if key == nil {
				vs = violatef(vs, "ht.entry", "entry %d klen %d exceeds block payload %d",
					e, hd.klen, usable-entryKeyStart)
				break
			}
			hash, vlen, vid := hd.hash, uint64(hd.vlen), uint64(hd.val)
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
			cur = uint64(hd.next)
		}
	}
	return vs
}
