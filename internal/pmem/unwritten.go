package pmem

import "math/bits"

// Unwritten extents. A DAX filesystem hands a newly sized file unwritten
// extents and zeroes a page at its first fault, not at ftruncate; the device
// models that per granule. Discard marks a range's whole granules unwritten
// without touching their bytes, which may be stale. Every access primitive
// (Slice, ReadAt, WriteAt, and CaptureRange when it copies pre-images) first
// zeroes the unwritten granules it overlaps — the first touch — so no stale
// byte is ever seen. Overwrite is the one write intent: its caller stores
// every byte of the range, so the whole granules inside it are taken without
// being zeroed.
//
// Ordering: a granule's bit is cleared only after its bytes are zeroed, and
// under zmu, so a caller that loads a clear bit sees the zeros, and two ranks
// touching one granule zero it once, before either writes.

// GranuleSize is the unit of unwritten-extent tracking: 64 KiB. Smaller
// granules make each first touch a short clear that stalls on the store
// buffer; larger ones zero more of what the writer then overwrites.
const (
	granuleShift = 16
	GranuleSize  = 1 << granuleShift
)

// touch zeroes every unwritten granule overlapping [off, off+n). The fast
// path — nothing unwritten on the device, or nothing in a range within one
// bitmap word — is one atomic load plus one masked word test; the first half
// is inlined into every access.
func (d *Device) touch(off, n int64) {
	if d.unwritten.Load() != 0 {
		d.touchFresh(off, n)
	}
}

// touchFresh is touch while some granule of the device is unwritten.
func (d *Device) touchFresh(off, n int64) {
	lo, hi := off>>granuleShift, (off+n-1)>>granuleShift
	if n <= 0 || lo>>6 == hi>>6 && d.fresh[lo>>6].Load()&(2<<(hi&63)-1)>>(lo&63) == 0 {
		return
	}
	d.eachFresh(lo, hi+1, d.zeroGranule)
}

// eachFresh calls fn for every granule in [lo, hi) whose bit is set, in
// ascending order, reading the bitmap without the lock.
func (d *Device) eachFresh(lo, hi int64, fn func(g int64)) {
	for w := lo >> 6; w <= (hi-1)>>6; w++ {
		word := d.fresh[w].Load()
		if w == lo>>6 {
			word &^= 1<<(lo&63) - 1
		}
		if w == (hi-1)>>6 && hi&63 != 0 {
			word &= 1<<(hi&63) - 1
		}
		for ; word != 0; word &= word - 1 {
			fn(w<<6 + int64(bits.TrailingZeros64(word)))
		}
	}
}

// isFresh reports whether granule g is unwritten.
func (d *Device) isFresh(g int64) bool { return d.fresh[g>>6].Load()&(1<<(g&63)) != 0 }

// setFresh sets or clears granule g's bit and keeps the count. The caller
// holds zmu.
func (d *Device) setFresh(g int64, on bool) {
	w, bit := &d.fresh[g>>6], uint64(1)<<(g&63)
	v := w.Load()
	if (v&bit != 0) == on {
		return
	}
	if on {
		w.Store(v | bit)
		d.unwritten.Add(1)
	} else {
		w.Store(v &^ bit)
		d.unwritten.Add(-1)
	}
}

// zeroGranule is granule g's first touch: zero it, then clear its bit. The
// bit is rechecked under the lock, so a granule two ranks race to touch is
// zeroed once, before either's bytes land.
func (d *Device) zeroGranule(g int64) {
	d.zmu.Lock()
	if d.isFresh(g) {
		lo, hi := g<<granuleShift, min((g+1)<<granuleShift, int64(len(d.data)))
		clear(d.data[lo:hi])
		d.ctr.zeroedBytes.Add(hi - lo)
		d.setFresh(g, false)
	}
	d.zmu.Unlock()
}

// wholeGranules returns the granules lying entirely inside [off, off+n).
func wholeGranules(off, n int64) (int64, int64) {
	return (off + GranuleSize - 1) >> granuleShift, (off + n) >> granuleShift
}

// Discard makes [off, off+n) read as zeros without writing it: the whole
// granules inside the range become unwritten, and the bytes of the range in a
// written edge granule are zeroed at once. No cost is charged and nothing is
// captured: like a filesystem's hole, it is extent state, not a store. The
// caller owns every whole granule of the range.
func (d *Device) Discard(off, n int64) error {
	if err := d.check(off, n); err != nil {
		return err
	}
	lo, hi := wholeGranules(off, n)
	head := min(off+n, lo<<granuleShift)
	d.zmu.Lock()
	defer d.zmu.Unlock()
	d.zeroEdge(off, head)
	d.zeroEdge(max(head, hi<<granuleShift), off+n)
	for g := lo; g < hi; g++ {
		d.setFresh(g, true)
	}
	return nil
}

// zeroEdge zeroes [a, b) wherever its granule is written; an unwritten
// granule reads as zeros already. The caller holds zmu.
func (d *Device) zeroEdge(a, b int64) {
	for a < b {
		g := a >> granuleShift
		e := min(b, (g+1)<<granuleShift)
		if !d.isFresh(g) {
			clear(d.data[a:e])
			d.ctr.zeroedBytes.Add(e - a)
		}
		a = e
	}
}

// Overwrite returns the live device bytes in [off, off+n) for a writer that
// stores every one of them before anything reads the range. The whole
// granules inside it are taken as written without being zeroed — the caller
// owns them — and the edge granules take the first touch. Under crash
// tracking the range is zeroed and then captured instead (CaptureRange), so
// pre-images stay zeros as on a DAX filesystem.
func (d *Device) Overwrite(off, n int64) ([]byte, error) {
	if d.tracking {
		if err := d.CaptureRange(off, n); err != nil {
			return nil, err
		}
		return d.data[off : off+n : off+n], nil
	}
	if err := d.check(off, n); err != nil {
		return nil, err
	}
	if lo, hi := wholeGranules(off, n); lo < hi && d.unwritten.Load() != 0 {
		d.zmu.Lock()
		d.eachFresh(lo, hi, func(g int64) { d.setFresh(g, false) })
		d.zmu.Unlock()
	}
	d.touch(off, n)
	return d.data[off : off+n : off+n], nil
}
