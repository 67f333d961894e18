package serial

import (
	"encoding/binary"
	"math"
	"unsafe"

	"pmemcpy/internal/bytesview"
	"pmemcpy/internal/checksum"
)

// foldFloat64 is fold_amd64.s: the min/max of p's float64 elements, len(p) a
// multiple of 64, NaNs skipped; +Inf, -Inf when p holds no value.
//
//go:noescape
func foldFloat64(p []byte) (mn, mx float64)

// sweepLines is fold_amd64.s: copy, fold and CRC32C of 3·l bytes in one load
// per line (see sweepFloat64).
//
//go:noescape
func sweepLines(dst, src []byte, l int, crc uint32, stream bool) (a, b, c uint32, mn, mx float64)

// cpuid1ECX is fold_amd64.s: ECX of CPUID leaf 1, the SSE feature bits.
func cpuid1ECX() uint32

// lineKernel reports whether the CPU has what sweepLines needs: SSE4.1
// (PEXTRQ) and SSE4.2 (CRC32), CPUID leaf 1 ECX bits 19 and 20. The package's
// amd64 baseline is SSE2; without them every sweep takes the tile loop.
var lineKernel = cpuid1ECX()&(1<<19|1<<20) == 1<<19|1<<20

// strandMax bounds one sweepLines call to three strands of at most 256 KiB:
// bytesview.StrandMax, the bound of every line kernel, since Go does not
// preempt assembly. At that size a fold that ends at ±0 rescans the source of
// its call while it is still in cache (the stored copy may have been streamed
// past it). Each call costs two Combines, about 0.1 µs each, against the
// ~80 µs it takes to move 768 KiB.
const strandMax = bytesview.StrandMax

// sweepFloat64 is sweep for a float64 payload with both the fold and the CRC
// on (bp4's EncodeSum). The body from the first 64-byte-aligned destination
// byte is cut into chunks of three strands of l bytes, l a multiple of 64 and
// at most strandMax, that sweepLines moves together, each line loaded once
// and stored, folded and summed from those registers; each chunk's strand
// CRCs are joined onto the running CRC by two Combines. The head before the
// body, the tail of less than three lines after it, a payload whose head is
// not whole elements and a CPU without SSE4.2 take the tile loop. stream
// selects non-temporal stores for the body.
func sweepFloat64(dst, src []byte, r *valueRange, crc uint32, stream bool) uint32 {
	h := int(-uintptr(unsafe.Pointer(unsafe.SliceData(dst))) & 63)
	if !lineKernel || h%8 != 0 || len(src)-h < 3*64 {
		return sweepTiles(dst, src, Float64, r, crc, true)
	}
	crc = sweepTiles(dst[:h], src[:h], Float64, r, crc, true)
	dst, src = dst[h:], src[h:]
	for len(src) >= 3*64 {
		l := min(len(src)/(3*64)*64, strandMax)
		body, from := dst[:3*l], src[:3*l]
		bytesview.RaceLines(body, from)
		a, b, c, mn, mx := sweepLines(body, from, l, crc, stream)
		r.add(kernelRange(from, mn, mx))
		crc = checksum.Combine(checksum.Combine(a, b, int64(l)), c, int64(l))
		dst, src = dst[3*l:], src[3*l:]
	}
	return sweepTiles(dst, src, Float64, r, crc, true)
}

// foldFloat64Tile is folders[Float64] on amd64: the SSE2 kernel over the
// 64-byte-multiple prefix of the tile, the Go compare over the at most 7
// elements after it. Loads are unaligned, so the tile is read where it is.
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
	return kernelRange(a, mn, mx)
}

// kernelRange turns the kernel's range over the elements of a into
// foldTile[float64]'s bits. A range still at the kernel's seeds, mn > mx, is
// a tile without values. Otherwise the kernel's lanes, like foldTile, skip
// NaNs and keep the earliest of equal elements; they can only disagree on
// which of several equal elements came first, and equal non-NaN float64s have
// identical bits unless they are zeros. So a zero at either end of the range
// is foldTile's: the first zero of a, +0 or -0. A caller that rewrote a after
// the kernel read it may have taken that zero away; the kernel's is kept.
func kernelRange(a []byte, mn, mx float64) (float64, float64) {
	if mn > mx {
		return math.NaN(), math.NaN()
	}
	if mn == 0 || mx == 0 {
		if z, ok := firstZero(a); ok {
			if mn == 0 {
				mn = z
			}
			if mx == 0 {
				mx = z
			}
		}
	}
	return mn, mx
}

// firstZero returns the first element of a that is +0 or -0, if any: as
// words where a is aligned for them, else byte by byte.
func firstZero(a []byte) (float64, bool) {
	if u, ok := bytesview.TryOf[uint64](a); ok {
		for _, v := range u {
			if v<<1 == 0 { // all bits but the sign
				return math.Float64frombits(v), true
			}
		}
		return 0, false
	}
	for ; len(a) >= 8; a = a[8:] {
		if v := binary.LittleEndian.Uint64(a); v<<1 == 0 {
			return math.Float64frombits(v), true
		}
	}
	return 0, false
}
