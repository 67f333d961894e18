package nd

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSize(t *testing.T) {
	if Size(nil) != 1 {
		t.Error("Size(nil) != 1")
	}
	if Size([]uint64{3, 4, 5}) != 60 {
		t.Error("Size(3,4,5) != 60")
	}
	if Size([]uint64{7, 0, 2}) != 0 {
		t.Error("Size with zero dim != 0")
	}
}

func TestStrides(t *testing.T) {
	s := Strides([]uint64{4, 3, 2})
	want := []uint64{6, 2, 1}
	for i := range want {
		if s[i] != want[i] {
			t.Fatalf("Strides = %v, want %v", s, want)
		}
	}
}

func TestCheckBlock(t *testing.T) {
	dims := []uint64{10, 10}
	if err := CheckBlock(dims, []uint64{5, 5}, []uint64{5, 5}); err != nil {
		t.Errorf("valid block rejected: %v", err)
	}
	if err := CheckBlock(dims, []uint64{5, 5}, []uint64{6, 5}); err == nil {
		t.Error("overflowing block accepted")
	}
	if err := CheckBlock(dims, []uint64{5}, []uint64{5, 5}); err == nil {
		t.Error("rank mismatch accepted")
	}
	if err := CheckBlock(dims, []uint64{^uint64(0), 5}, []uint64{2, 5}); err == nil {
		t.Error("block whose offs+counts wraps past 2^64 accepted")
	}
	if err := CheckBlock(dims, []uint64{0, 5}, []uint64{^uint64(0), 5}); err == nil {
		t.Error("count past the extent accepted")
	}
}

func collectRuns(t *testing.T, dims, offs, counts []uint64, esize int) [][3]int64 {
	t.Helper()
	var runs [][3]int64
	err := Runs(dims, offs, counts, esize, func(g, b, n int64) error {
		runs = append(runs, [3]int64{g, b, n})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return runs
}

func TestRunsScalar(t *testing.T) {
	runs := collectRuns(t, nil, nil, nil, 8)
	if len(runs) != 1 || runs[0] != [3]int64{0, 0, 8} {
		t.Fatalf("scalar runs = %v", runs)
	}
}

func TestRuns1D(t *testing.T) {
	runs := collectRuns(t, []uint64{100}, []uint64{10}, []uint64{5}, 8)
	if len(runs) != 1 || runs[0] != [3]int64{80, 0, 40} {
		t.Fatalf("1-D runs = %v", runs)
	}
}

func TestRuns2DPartialRows(t *testing.T) {
	// 4x6 array, block rows 1-2, cols 2-4 -> two runs of 3 elements.
	runs := collectRuns(t, []uint64{4, 6}, []uint64{1, 2}, []uint64{2, 3}, 1)
	want := [][3]int64{{8, 0, 3}, {14, 3, 3}}
	if len(runs) != 2 {
		t.Fatalf("runs = %v", runs)
	}
	for i := range want {
		if runs[i] != want[i] {
			t.Fatalf("runs[%d] = %v, want %v", i, runs[i], want[i])
		}
	}
}

func TestRunsCollapseFullInnerDims(t *testing.T) {
	// Full inner dims collapse into one long run per outer index.
	runs := collectRuns(t, []uint64{5, 4, 3}, []uint64{2, 0, 0}, []uint64{2, 4, 3}, 8)
	if len(runs) != 1 {
		t.Fatalf("collapsed runs = %v, want a single run", runs)
	}
	if runs[0] != [3]int64{2 * 12 * 8, 0, 2 * 12 * 8} {
		t.Fatalf("run = %v", runs[0])
	}
}

func TestRunsZeroCount(t *testing.T) {
	runs := collectRuns(t, []uint64{5, 5}, []uint64{0, 0}, []uint64{0, 5}, 8)
	if len(runs) != 0 {
		t.Fatalf("zero-count runs = %v", runs)
	}
}

func TestRunsRejectsBadBlock(t *testing.T) {
	err := Runs([]uint64{4}, []uint64{2}, []uint64{3}, 8, func(g, b, n int64) error { return nil })
	if err == nil {
		t.Fatal("out-of-bounds block accepted")
	}
}

func TestCopyInOutRoundTrip(t *testing.T) {
	dims := []uint64{4, 5, 6}
	offs := []uint64{1, 2, 3}
	counts := []uint64{2, 2, 2}
	esize := 8
	global := make([]byte, Size(dims)*uint64(esize))
	local := make([]byte, Size(counts)*uint64(esize))
	for i := range local {
		local[i] = byte(i + 1)
	}
	if err := CopyIn(global, dims, offs, counts, local, esize); err != nil {
		t.Fatal(err)
	}
	back := make([]byte, len(local))
	if err := CopyOut(global, dims, offs, counts, back, esize); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(local, back) {
		t.Fatal("CopyIn/CopyOut round trip mismatch")
	}
}

func TestCopyInPlacesElementsCorrectly(t *testing.T) {
	// 3x3 grid of 1-byte elements; block (1,1)+2x2 with values 1..4.
	global := make([]byte, 9)
	if err := CopyIn(global, []uint64{3, 3}, []uint64{1, 1}, []uint64{2, 2}, []byte{1, 2, 3, 4}, 1); err != nil {
		t.Fatal(err)
	}
	want := []byte{
		0, 0, 0,
		0, 1, 2,
		0, 3, 4,
	}
	if !bytes.Equal(global, want) {
		t.Fatalf("global = %v, want %v", global, want)
	}
}

func TestCopyBufferTooSmall(t *testing.T) {
	global := make([]byte, 9)
	if err := CopyIn(global, []uint64{3, 3}, []uint64{0, 0}, []uint64{2, 2}, []byte{1, 2, 3}, 1); err == nil {
		t.Fatal("short local buffer accepted")
	}
	if err := CopyOut(global, []uint64{3, 3}, []uint64{0, 0}, []uint64{2, 2}, make([]byte, 3), 1); err == nil {
		t.Fatal("short local buffer accepted on CopyOut")
	}
}

func TestIntersect(t *testing.T) {
	offs, counts, ok := Intersect(
		[]uint64{0, 0}, []uint64{4, 4},
		[]uint64{2, 3}, []uint64{4, 4},
	)
	if !ok || offs[0] != 2 || offs[1] != 3 || counts[0] != 2 || counts[1] != 1 {
		t.Fatalf("Intersect = %v %v %v", offs, counts, ok)
	}
	if _, _, ok := Intersect([]uint64{0}, []uint64{2}, []uint64{5}, []uint64{2}); ok {
		t.Fatal("disjoint blocks intersected")
	}
	if _, _, ok := Intersect([]uint64{0}, []uint64{2}, []uint64{0, 0}, []uint64{2, 2}); ok {
		t.Fatal("rank mismatch intersected")
	}
	// Overlaps is Intersect's ok, and IntersectInto its result in the
	// caller's buffers, with nothing allocated: every pair of 1-D extents
	// over [0, 6), the empty ones included.
	var is [2]uint64
	for a := uint64(0); a < 36; a++ {
		for b := uint64(0); b < 36; b++ {
			oa, ca, ob, cb := []uint64{a / 6}, []uint64{a % 6}, []uint64{b / 6}, []uint64{b % 6}
			offs, counts, ok := Intersect(oa, ca, ob, cb)
			if Overlaps(oa, ca, ob, cb) != ok {
				t.Fatalf("Overlaps(%v+%v, %v+%v) != %v", oa, ca, ob, cb, ok)
			}
			if got := IntersectInto(is[:1], is[1:], oa, ca, ob, cb); got != ok || ok && (is[0] != offs[0] || is[1] != counts[0]) {
				t.Fatalf("IntersectInto(%v+%v, %v+%v) = %v %v, Intersect %v %v %v", oa, ca, ob, cb, got, is, offs, counts, ok)
			}
		}
	}
	a, c := []uint64{0, 0}, []uint64{4, 4}
	var isOffs, isCnts [2]uint64
	if n := testing.AllocsPerRun(10, func() { IntersectInto(isOffs[:], isCnts[:], a, c, a, c) }); n != 0 {
		t.Errorf("IntersectInto = %v allocations, want 0", n)
	}
}

func TestSub(t *testing.T) {
	got := Sub([]uint64{5, 7}, []uint64{2, 3})
	if got[0] != 3 || got[1] != 4 {
		t.Fatalf("Sub = %v", got)
	}
}

func TestDecompose(t *testing.T) {
	for _, n := range []int{1, 2, 8, 16, 24, 32, 48} {
		grid := Decompose(n, 3)
		prod := uint64(1)
		for _, g := range grid {
			prod *= g
		}
		if prod != uint64(n) {
			t.Fatalf("Decompose(%d,3) = %v, product %d", n, grid, prod)
		}
	}
	// Near-cubic for 24: expect something like {4,3,2} in some order.
	grid := Decompose(24, 3)
	var mx, mn uint64 = 0, 1 << 62
	for _, g := range grid {
		if g > mx {
			mx = g
		}
		if g < mn {
			mn = g
		}
	}
	if mx > 6 {
		t.Fatalf("Decompose(24,3) = %v is too elongated", grid)
	}
	_ = mn
	if Decompose(0, 3) != nil || Decompose(4, 0) != nil {
		t.Fatal("degenerate Decompose should return nil")
	}
}

// Property: for random shapes and blocks, CopyIn then CopyOut is identity,
// and the runs partition the block exactly (total bytes match, block offsets
// are sequential).
func TestQuickRunsPartitionBlock(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	f := func(seed uint32) bool {
		r := rand.New(rand.NewSource(int64(seed)))
		rank := r.Intn(4) + 1
		dims := make([]uint64, rank)
		offs := make([]uint64, rank)
		counts := make([]uint64, rank)
		for i := range dims {
			dims[i] = uint64(r.Intn(7) + 1)
			counts[i] = uint64(r.Intn(int(dims[i]))) + 1
			offs[i] = uint64(r.Intn(int(dims[i]-counts[i]) + 1))
		}
		esize := []int{1, 4, 8}[r.Intn(3)]
		var total int64
		var nextBlockOff int64
		prevGlobal := int64(-1)
		err := Runs(dims, offs, counts, esize, func(g, b, n int64) error {
			if b != nextBlockOff {
				t.Errorf("block offsets not sequential: got %d want %d", b, nextBlockOff)
			}
			if g <= prevGlobal {
				t.Errorf("global offsets not increasing: %d after %d", g, prevGlobal)
			}
			prevGlobal = g
			nextBlockOff += n
			total += n
			return nil
		})
		if err != nil {
			return false
		}
		if total != int64(Size(counts))*int64(esize) {
			return false
		}
		// Round-trip data integrity.
		global := make([]byte, Size(dims)*uint64(esize))
		local := make([]byte, Size(counts)*uint64(esize))
		rng.Read(local)
		if err := CopyIn(global, dims, offs, counts, local, esize); err != nil {
			return false
		}
		back := make([]byte, len(local))
		if err := CopyOut(global, dims, offs, counts, back, esize); err != nil {
			return false
		}
		return bytes.Equal(local, back)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: two disjoint blocks copied into the same global buffer never
// clobber each other.
func TestQuickDisjointBlocksIndependent(t *testing.T) {
	f := func(seed uint32) bool {
		r := rand.New(rand.NewSource(int64(seed)))
		dims := []uint64{8, 8}
		// Split along dim 0: rows [0,4) and [4,8).
		offsA, cntsA := []uint64{0, 0}, []uint64{4, 8}
		offsB, cntsB := []uint64{4, 0}, []uint64{4, 8}
		a := make([]byte, 32)
		b := make([]byte, 32)
		r.Read(a)
		r.Read(b)
		global := make([]byte, 64)
		if err := CopyIn(global, dims, offsA, cntsA, a, 1); err != nil {
			return false
		}
		if err := CopyIn(global, dims, offsB, cntsB, b, 1); err != nil {
			return false
		}
		backA := make([]byte, 32)
		backB := make([]byte, 32)
		if err := CopyOut(global, dims, offsA, cntsA, backA, 1); err != nil {
			return false
		}
		if err := CopyOut(global, dims, offsB, cntsB, backB, 1); err != nil {
			return false
		}
		return bytes.Equal(a, backA) && bytes.Equal(b, backB)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
