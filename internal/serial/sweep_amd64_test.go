package serial

import (
	"math/rand"
	"testing"
	"unsafe"

	"pmemcpy/internal/bytesview"
)

// TestSweepWithoutSSE42 covers the fallback the CPU probe selects on an amd64
// host without SSE4.2: with the kernel switched off, bp4 payloads that would
// take it still encode as the three-pass reference does.
func TestSweepWithoutSSE42(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	bp4 := Default()
	withoutSSE42(func() {
		for _, size := range []int{2*sweepTile + 5*8, streamMin + 8} {
			payload := make([]byte, size)
			rng.Read(payload)
			d := &Datum{Type: Float64, Dims: []uint64{uint64(size / 8)}, Payload: payload}
			for _, dstOff := range []int{0, 8} {
				if err := checkSweep(bp4, d, 0xdeadbeef, dstOff); err != nil {
					t.Fatalf("%d bytes, destination offset %d: %v", size, dstOff, err)
				}
				if err := checkKernel(payload, dstOff, 0xdeadbeef); err != nil {
					t.Fatalf("%d bytes, destination offset %d: %v", size, dstOff, err)
				}
			}
		}
	})
	if !lineKernel {
		t.Log("this CPU has no SSE4.2: the kernel never runs")
	}
}

// TestKernelRangeAfterARace: a zero the kernel folded but the rescan no
// longer finds — the caller rewrote its buffer in between — leaves the
// kernel's zero in place instead of running off the end of the buffer.
func TestKernelRangeAfterARace(t *testing.T) {
	for _, off := range []int{0, 3} {
		a := bytesview.Bytes([]float64{1, 2, 3, 4, 5})[off:]
		a = a[:len(a)&^7]
		if mn, mx := kernelRange(a, 0, 5); mn != 0 || mx != 5 {
			t.Errorf("offset %d: range (%v, %v), want (0, 5)", off, mn, mx)
		}
	}
}

// BenchmarkSweepZeroLast is the ±0 post-pass at its worst: 4 MB payloads of
// positive values in which each kernel call's only zero is its last element,
// so every call rescans its whole source, beside the same payloads without
// the zeros. Destinations sit behind a 40-byte header, as in
// BenchmarkStoreSweep.
func BenchmarkSweepZeroLast(b *testing.B) {
	const payload, bufs = 4 << 20, 8
	rng := rand.New(rand.NewSource(1))
	for _, zeros := range []bool{false, true} {
		src, dst := make([][]byte, bufs), make([][]byte, bufs)
		for i := range src {
			src[i], dst[i] = make([]byte, payload), make([]byte, 64+payload)[40:]
			for j := range payload / 8 {
				putFloat(src[i], 8, j, 1+rng.Float64())
			}
			off := int(-uintptr(unsafe.Pointer(unsafe.SliceData(dst[i]))) & 63)
			for rest := payload - off; zeros && rest >= 3*64; {
				l := min(rest/(3*64)*64, strandMax)
				off, rest = off+3*l, rest-3*l
				putFloat(src[i], 8, off/8-1, 0)
			}
		}
		name := "positive"
		if zeros {
			name = "zero-last"
		}
		b.Run(name, func(b *testing.B) {
			b.SetBytes(payload)
			for i := 0; i < b.N; i++ {
				r := noRange
				sink = sweep(dst[i%bufs], src[i%bufs], Float64, &r, 0, true)
				if zeros && r.mn != 0 {
					b.Fatalf("minimum %v, want a zero", r.mn)
				}
			}
		})
	}
}
