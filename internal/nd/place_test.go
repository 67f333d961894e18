package nd

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
	"unsafe"

	"pmemcpy/internal/bytesview"
)

// placeOracle is PlaceIntersection as two passes over a temporary: gather the
// region out of the source layout, then scatter it into the destination
// layout. The single-walk implementation is pinned against it.
func placeOracle(dst []byte, dOffs, dCnts []uint64, src []byte, sOffs, sCnts,
	isOffs, isCnts []uint64, esize int) error {
	tmp := make([]byte, int64(Size(isCnts))*int64(esize))
	if err := CopyOut(src, sCnts, Sub(isOffs, sOffs), isCnts, tmp, esize); err != nil {
		return err
	}
	return CopyIn(dst, dCnts, Sub(isOffs, dOffs), isCnts, tmp, esize)
}

// placeCase is one random block-to-block scatter: a region and two blocks
// that contain it, each extending past it by 0..2 elements on either side of
// every dimension — so every dimension sees partial overlaps, and dimensions
// where neither block extends exercise the folded contiguous run.
type placeCase struct {
	dOffs, dCnts, sOffs, sCnts, isOffs, isCnts []uint64
	esize                                      int
	src, dst                                   []byte
}

func randPlaceCase(r *rand.Rand) placeCase {
	rank := r.Intn(5) // 0..4
	c := placeCase{esize: []int{1, 4, 8}[r.Intn(3)]}
	for _, p := range []*[]uint64{&c.dOffs, &c.dCnts, &c.sOffs, &c.sCnts, &c.isOffs, &c.isCnts} {
		*p = make([]uint64, rank)
	}
	for i := 0; i < rank; i++ {
		c.isOffs[i] = uint64(2 + r.Intn(4))
		c.isCnts[i] = uint64(1 + r.Intn(4))
		extend := func() (off, cnt uint64) {
			if r.Intn(3) == 0 { // exactly the region: a full dimension
				return c.isOffs[i], c.isCnts[i]
			}
			before, after := uint64(r.Intn(3)), uint64(r.Intn(3))
			return c.isOffs[i] - before, before + c.isCnts[i] + after
		}
		c.sOffs[i], c.sCnts[i] = extend()
		c.dOffs[i], c.dCnts[i] = extend()
	}
	c.src = make([]byte, Size(c.sCnts)*uint64(c.esize))
	r.Read(c.src)
	c.dst = make([]byte, Size(c.dCnts)*uint64(c.esize))
	r.Read(c.dst)
	return c
}

func (c placeCase) run(place func([]byte, []uint64, []uint64, []byte, []uint64, []uint64, []uint64, []uint64, int) error,
	dst, src []byte) error {
	return place(dst, c.dOffs, c.dCnts, src, c.sOffs, c.sCnts, c.isOffs, c.isCnts, c.esize)
}

// Property: over ranks 0-4 and partial overlaps in every dimension, the single
// walk writes exactly the bytes the two-pass oracle writes — and leaves every
// other destination byte alone.
func TestQuickPlaceIntersectionMatchesOracle(t *testing.T) {
	f := func(seed uint32) bool {
		c := randPlaceCase(rand.New(rand.NewSource(int64(seed))))
		want := append([]byte(nil), c.dst...)
		if err := c.run(placeOracle, want, c.src); err != nil {
			t.Logf("oracle: %v", err)
			return false
		}
		if err := c.run(PlaceIntersection, c.dst, c.src); err != nil {
			t.Logf("direct: %v", err)
			return false
		}
		return bytes.Equal(c.dst, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// Property: with either buffer cut short, the walk errors exactly when the
// oracle does, never panics, and never writes past the destination's bound;
// when the missing tail is not touched, both succeed with equal bytes.
func TestQuickPlaceIntersectionShortBuffers(t *testing.T) {
	f := func(seed uint32) bool {
		r := rand.New(rand.NewSource(int64(seed)))
		c := randPlaceCase(r)
		src, dst := c.src, c.dst
		if r.Intn(2) == 0 {
			src = src[:r.Intn(len(src))]
		} else {
			dst = dst[:r.Intn(len(dst))]
		}
		tail := append([]byte(nil), c.dst[len(dst):]...)
		want := append([]byte(nil), dst...)
		wantErr := c.run(placeOracle, want, src)
		gotErr := c.run(PlaceIntersection, dst, src)
		if (wantErr != nil) != (gotErr != nil) {
			t.Logf("oracle err %v, direct err %v", wantErr, gotErr)
			return false
		}
		if gotErr != nil && !errors.Is(gotErr, ErrOutOfBounds) {
			t.Logf("short-buffer error %v does not wrap ErrOutOfBounds", gotErr)
			return false
		}
		if !bytes.Equal(c.dst[len(dst):], tail) {
			t.Log("wrote past the destination's bound")
			return false
		}
		return gotErr != nil || bytes.Equal(dst, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// A region that leaves either block, or slices of mismatched rank, are
// selection errors — not panics, and not wrapped-around offsets.
func TestPlaceIntersectionRejectsBadRegion(t *testing.T) {
	src, dst := make([]byte, 16), make([]byte, 16)
	blk := func(off, cnt uint64) ([]uint64, []uint64) { return []uint64{off, 0}, []uint64{cnt, 4} }
	sOffs, sCnts := blk(4, 4)
	dOffs, dCnts := blk(4, 4)
	for name, region := range map[string][2][]uint64{
		"before the blocks": {{3, 0}, {2, 4}},
		"past the blocks":   {{6, 0}, {3, 4}},
		"wider than a dim":  {{4, 0}, {4, 5}},
		"rank mismatch":     {{4}, {4}},
	} {
		err := PlaceIntersection(dst, dOffs, dCnts, src, sOffs, sCnts, region[0], region[1], 1)
		if !errors.Is(err, ErrOutOfBounds) {
			t.Errorf("%s: err = %v, want ErrOutOfBounds", name, err)
		}
	}
}

// The walk allocates nothing, however large the region: no temporary sized by
// it, and the per-dimension bookkeeping lives on the stack.
func TestPlaceIntersectionDoesNotAllocate(t *testing.T) {
	// A 64^3 float64 interior region (2 MB) between two 80^3 blocks.
	sOffs, sCnts := []uint64{0, 0, 0}, []uint64{80, 80, 80}
	dOffs, dCnts := []uint64{8, 8, 8}, []uint64{80, 80, 80}
	isOffs, isCnts := []uint64{12, 12, 12}, []uint64{64, 64, 64}
	src := make([]byte, Size(sCnts)*8)
	dst := make([]byte, Size(dCnts)*8)
	allocs := testing.AllocsPerRun(5, func() {
		if err := PlaceIntersection(dst, dOffs, dCnts, src, sOffs, sCnts, isOffs, isCnts, 8); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("PlaceIntersection allocated %.0f times per call, want 0", allocs)
	}
}

// A run of at least bytesview.StreamMin takes the streaming copy, whose
// non-temporal stores fault on a destination that is not 16-byte aligned
// unless the head before the first 64-byte boundary is copied apart. Place
// two full 1 MiB rows of a 4-row block into destinations at byte offsets that
// are 8-byte aligned only and odd, and hold the result to the oracle.
func TestPlaceLargeRunAtUnalignedDestination(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, c := range []struct{ esize, off int }{{8, 8}, {8, 24}, {1, 3}} {
		row := uint64(bytesview.StreamMin / c.esize)
		cnts := []uint64{4, row}
		offs := []uint64{0, 0}
		isOffs, isCnts := []uint64{1, 0}, []uint64{2, row}
		src := make([]byte, Size(cnts)*uint64(c.esize))
		rng.Read(src)
		buf := make([]byte, len(src)+64+c.off)
		base := int(-uintptr(unsafe.Pointer(unsafe.SliceData(buf)))&63) + c.off
		got := buf[base : base+len(src)]
		want := make([]byte, len(src))
		if err := PlaceIntersection(got, offs, cnts, src, offs, cnts, isOffs, isCnts, c.esize); err != nil {
			t.Fatal(err)
		}
		if err := placeOracle(want, offs, cnts, src, offs, cnts, isOffs, isCnts, c.esize); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("esize %d at destination offset %d: the 2 MiB run differs from the oracle", c.esize, c.off)
		}
	}
}
