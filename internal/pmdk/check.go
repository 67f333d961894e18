package pmdk

import (
	"errors"
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
	// "alloc.heap" or "ht.entry".
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
// run at Open), then one walk of the heap — the walk Open rebuilds the free
// lists from — which must find a sane brk, a valid header on every block, and
// as many free blocks as the free lists and the arenas' current extents hold
// (so it is run on a quiescent pool: a reservation in flight reads free on
// media and is on no list).
// It is read-only and returns one Violation per violated invariant; the walk
// reports the first thing it cannot trust.
func (p *Pool) Verify(clk *sim.Clock) []Violation {
	var vs []Violation

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

	var listed int64
	_, free, err := p.Census(clk)
	var ch *corruptHeap
	switch {
	case errors.As(err, &ch):
		return violatef(vs, ch.inv, "%s", ch.detail)
	case err != nil:
		return violatef(vs, "pool.io", "walking the heap: %v", err)
	}
	for i := range p.arenas {
		a := &p.arenas[i]
		a.mu.Lock()
		if listed += a.free.Load(); a.cur.size > 0 {
			listed++
		}
		a.mu.Unlock()
	}
	if free != listed {
		vs = violatef(vs, "alloc.freestate", "the heap holds %d free blocks, the free lists %d", free, listed)
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

// Census counts the heap's allocated and free blocks by one walk of their
// headers, the walk Open rebuilds the free lists from.
func (p *Pool) Census(clk *sim.Clock) (alloc, free int64, err error) {
	err = p.walkHeap(clk, func(_ PMID, _ int64, f bool) {
		if f {
			free++
		} else {
			alloc++
		}
	})
	return alloc, free, err
}
