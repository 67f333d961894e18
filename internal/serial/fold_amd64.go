package serial

import (
	"encoding/binary"
	"math"
)

// foldFloat64 is fold_amd64.s: the min/max of p's float64 elements, len(p) a
// multiple of 64, NaNs skipped; +Inf, -Inf when p holds no value.
//
//go:noescape
func foldFloat64(p []byte) (mn, mx float64)

// foldFloat64Tile is folders[Float64] on amd64: the SSE2 kernel over the
// 64-byte-multiple prefix of the tile, the Go compare over the at most 7
// elements after it. Loads are unaligned, so the tile is read where it is.
//
// It returns foldTile[float64]'s bits. A range still at the kernel's seeds,
// mn > mx, is a tile without values. Otherwise the kernel's lanes, like
// foldTile, skip NaNs and keep the earliest of equal elements; they can only
// disagree on which of several equal elements came first, and equal non-NaN
// float64s have identical bits unless they are zeros. So a zero at either end
// of the range is foldTile's: the tile's first zero, +0 or -0.
func foldFloat64Tile(a, _ []byte) (float64, float64) {
	n := len(a) &^ 63
	mn, mx := foldFloat64(a[:n])
	for p := a[n:]; len(p) >= 8; p = p[8:] {
		v := math.Float64frombits(binary.LittleEndian.Uint64(p))
		if v < mn {
			mn = v
		}
		if v > mx {
			mx = v
		}
	}
	if mn > mx {
		return math.NaN(), math.NaN()
	}
	if mn == 0 || mx == 0 {
		z := firstZero(a)
		if mn == 0 {
			mn = z
		}
		if mx == 0 {
			mx = z
		}
	}
	return mn, mx
}

// firstZero returns the first element of a that is +0 or -0; a holds one.
func firstZero(a []byte) float64 {
	i := 0
	for binary.LittleEndian.Uint64(a[i:])<<1 != 0 { // all bits but the sign
		i += 8
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(a[i:]))
}
