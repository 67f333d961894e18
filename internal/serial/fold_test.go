package serial

import (
	"math"
	"math/rand"
	"testing"

	"pmemcpy/internal/bytesview"
)

// foldClasses draws one float64 of each class the fold's exactness argument
// turns on: normal values (a small set of them, so ties are common), NaNs of
// any sign and payload, infinities, signed zeros and denormals.
var foldClasses = [...]func(rng *rand.Rand) float64{
	func(rng *rand.Rand) float64 {
		if rng.Intn(2) == 0 {
			return float64(rng.Intn(9)-4) + 0.5
		}
		return math.Float64frombits(rng.Uint64()&^(0x7ff<<52) | uint64(1+rng.Intn(0x7fe))<<52)
	},
	func(rng *rand.Rand) float64 { return math.Float64frombits(rng.Uint64() | 0x7ff<<52 | 1) },
	func(rng *rand.Rand) float64 { return math.Inf(1 - 2*rng.Intn(2)) },
	func(rng *rand.Rand) float64 { return math.Copysign(0, float64(1-2*rng.Intn(2))) },
	func(rng *rand.Rand) float64 { return math.Float64frombits(rng.Uint64()&(1<<63|1<<52-1) | 1) },
}

// sameFold reports whether two ranges are the same bits, any NaN equal to any
// NaN.
func sameFold(mn1, mx1, mn2, mx2 float64) bool {
	same := func(x, y float64) bool { return x != x && y != y || math.Float64bits(x) == math.Float64bits(y) }
	return same(mn1, mn2) && same(mx1, mx2)
}

// TestFoldKernelMatchesGo holds folders[Float64] — on amd64 the SSE2 kernel,
// its Go remainder and its ±0 rerun — to foldTile[float64], its oracle, bit
// for bit: 100 k random tiles of 0–40 elements and full tiles, at every byte
// offset, each drawn from a random subset of the classes.
func TestFoldKernelMatchesGo(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	buf := make([]byte, 8+sweepTile)
	vals := make([]float64, sweepTile/8)
	for i := range 100_000 {
		n := rng.Intn(41)
		if i%64 == 0 {
			n = len(vals)
		}
		classes := 1 + rng.Intn(1<<len(foldClasses)-1)
		for j := range vals[:n] {
			c := rng.Intn(len(foldClasses))
			for classes&(1<<c) == 0 {
				c = (c + 1) % len(foldClasses)
			}
			vals[j] = foldClasses[c](rng)
		}
		off := rng.Intn(8)
		p := buf[off : off+8*n]
		copy(p, bytesview.Bytes(vals[:n]))
		mn, mx := folders[Float64](p, nil)
		wmn, wmx := foldTile[float64](p, nil)
		if !sameFold(mn, mx, wmn, wmx) {
			t.Fatalf("case %d (%d elements at offset %d, classes %05b): fold = (%v %#x, %v %#x), Go fold = (%v %#x, %v %#x)",
				i, n, off, classes, mn, math.Float64bits(mn), mx, math.Float64bits(mx),
				wmn, math.Float64bits(wmn), wmx, math.Float64bits(wmx))
		}
	}
}

// FuzzFold is TestFoldKernelMatchesGo over arbitrary bytes at an arbitrary
// offset, cut to whole elements and at most one tile.
func FuzzFold(f *testing.F) {
	f.Add(bytesview.Bytes([]float64{math.Copysign(0, -1), 1, 0, math.NaN(), -2, 0, 3, math.Inf(1), 5}), uint8(3))
	f.Add(bytesview.Bytes([]float64{math.NaN(), math.NaN(), math.NaN(), math.NaN(), math.NaN(), math.NaN(), math.NaN(), math.NaN()}), uint8(0))
	f.Fuzz(func(t *testing.T, data []byte, off uint8) {
		p := data[min(int(off%8), len(data)):]
		p = p[:min(len(p)&^7, sweepTile)]
		mn, mx := folders[Float64](p, nil)
		wmn, wmx := foldTile[float64](p, nil)
		if !sameFold(mn, mx, wmn, wmx) {
			t.Fatalf("%d elements: fold = (%v, %v), Go fold = (%v, %v)", len(p)/8, mn, mx, wmn, wmx)
		}
	})
}
