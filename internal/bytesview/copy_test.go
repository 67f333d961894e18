package bytesview

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"unsafe"
)

// guard is the byte every destination buffer is filled with outside the
// copied range; guardLen bytes of it on each side must survive every copy.
const (
	guard    = 0xA5
	guardLen = 64
)

// copyCase copies n random bytes from a source starting sOff bytes past a
// 64-byte boundary into a destination starting dOff bytes past one, through
// f, and reports how the destination differs from copy's: a wrong byte in
// the range, or a guard byte on either side touched.
func copyCase(rng *rand.Rand, f func(dst, src []byte), n, dOff, sOff int) error {
	src := aligned64(n + sOff)[sOff:]
	rng.Read(src)
	buf := aligned64(guardLen + 64 + n + guardLen)
	for i := range buf {
		buf[i] = guard
	}
	lo := guardLen + dOff
	f(buf[lo:lo+n], src)
	if i := mismatch(buf[lo:lo+n], src); i >= 0 {
		return fmt.Errorf("byte %d is %#x, want %#x", i, buf[lo+i], src[i])
	}
	for _, g := range [][]byte{buf[:lo], buf[lo+n:]} {
		if bytes.Count(g, []byte{guard}) != len(g) {
			return fmt.Errorf("a guard byte outside [%d, %d) was written", lo, lo+n)
		}
	}
	return nil
}

// aligned64 returns n bytes starting on a 64-byte boundary.
func aligned64(n int) []byte {
	b := make([]byte, n+64)
	off := int(-uintptr(unsafe.Pointer(unsafe.SliceData(b))) & 63)
	return b[off : off+n]
}

func mismatch(a, b []byte) int {
	for i := range a {
		if a[i] != b[i] {
			return i
		}
	}
	return -1
}

func streamCopyFunc(dst, src []byte) { streamCopy(dst, src) }
func copyFunc(dst, src []byte)       { Copy(dst, src) }

// TestStreamCopyMisalignments: at every destination and source offset from a
// 64-byte boundary, 0 to 63 each, the streaming copy writes copy's bytes and
// nothing outside them — at a length whose body takes several kernel lines
// and leaves a tail, and through Copy at StreamMin + 63.
func TestStreamCopyMisalignments(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for dOff := 0; dOff < 64; dOff++ {
		for sOff := 0; sOff < 64; sOff++ {
			if err := copyCase(rng, streamCopyFunc, 3*64*5+63, dOff, sOff); err != nil {
				t.Fatalf("destination offset %d, source offset %d: %v", dOff, sOff, err)
			}
		}
	}
	for dOff := 0; dOff < 64; dOff++ {
		sOff := (dOff * 37) % 64
		if err := copyCase(rng, copyFunc, StreamMin+63, dOff, sOff); err != nil {
			t.Fatalf("Copy of %d bytes, destination offset %d, source offset %d: %v", StreamMin+63, dOff, sOff, err)
		}
	}
}

// TestStreamCopyLengths: around StreamMin, around whole kernel iterations
// (3·64·k bytes) and around the strand boundary (3·StrandMax, one full call),
// at destination offsets that leave the body aligned, 8- and 16-byte aligned
// only, and odd.
func TestStreamCopyLengths(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var lengths []int
	for _, base := range []int{StreamMin, 3 * 64, 3 * 64 * 2, 3 * 64 * 7, 3 * 64 * 4096} {
		for _, d := range []int{0, 1, 63} {
			lengths = append(lengths, base+d)
			if base > d {
				lengths = append(lengths, base-d)
			}
		}
	}
	for _, d := range []int{-64, 0, 64} {
		lengths = append(lengths, 3*StrandMax+d, 2*3*StrandMax+d)
	}
	for _, n := range lengths {
		for _, off := range [][2]int{{0, 0}, {8, 0}, {16, 40}, {1, 63}, {63, 1}} {
			f, name := streamCopyFunc, "streamCopy"
			if n >= StreamMin {
				f, name = copyFunc, "Copy"
			}
			if err := copyCase(rng, f, n, off[0], off[1]); err != nil {
				t.Fatalf("%s of %d bytes, destination offset %d, source offset %d: %v", name, n, off[0], off[1], err)
			}
		}
	}
}

// TestCopyIsBuiltinCopy: Copy returns copy's count for unequal lengths and
// keeps copy's semantics for overlapping slices, which the kernel would not.
func TestCopyIsBuiltinCopy(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	src := make([]byte, StreamMin+100)
	rng.Read(src)
	dst := make([]byte, StreamMin+50)
	if n := Copy(dst, src); n != len(dst) || !bytes.Equal(dst, src[:len(dst)]) {
		t.Fatalf("Copy into a shorter dst copied %d bytes, want %d", n, len(dst))
	}
	if n := Copy(make([]byte, 10), src); n != 10 {
		t.Fatalf("Copy into 10 bytes = %d", n)
	}
	for _, shift := range []int{-4096, 4096} {
		buf := make([]byte, StreamMin+8192)
		rng.Read(buf)
		want := append([]byte(nil), buf...)
		lo := 4096
		copy(want[lo+shift:lo+shift+StreamMin], want[lo:lo+StreamMin])
		Copy(buf[lo+shift:lo+shift+StreamMin], buf[lo:lo+StreamMin])
		if !bytes.Equal(buf, want) {
			t.Fatalf("overlapping Copy shifted by %d differs from copy", shift)
		}
	}
}

// FuzzStreamCopy holds the streaming copy to copy's bytes, with the guards
// intact, at any length up to two kernel calls and any pair of offsets.
func FuzzStreamCopy(f *testing.F) {
	f.Add(int64(1), uint32(3*64), uint8(0), uint8(0))
	f.Add(int64(2), uint32(3*StrandMax+64), uint8(17), uint8(3))
	f.Add(int64(3), uint32(StreamMin+63), uint8(63), uint8(62))
	f.Fuzz(func(t *testing.T, seed int64, n uint32, dOff, sOff uint8) {
		n %= 2*3*StrandMax + 4096
		if err := copyCase(rand.New(rand.NewSource(seed)), streamCopyFunc, int(n), int(dOff%64), int(sOff%64)); err != nil {
			t.Fatalf("%d bytes, destination offset %d, source offset %d: %v", n, dOff%64, sOff%64, err)
		}
	})
}

// BenchmarkLoadCopy is the load copy rung: the cost of moving n bytes of
// cold stored data into a caller's buffer, Go's copy against the streaming
// copy (streamCopy, which Copy takes from StreamMin on), at 256 KiB, 1 MiB,
// 2 MiB and 4 MiB, with 1 and 2 goroutines copying at once. Each goroutine
// copies its own run of payloads from a 256 MiB source, so every copy reads
// bytes the last lap left long before, into a destination of its own; ns/op
// is one copy as a goroutine sees it, and each row is stamped with nproc.
// The 1 MiB row is what StreamMin is held to.
//
//	go test -run '^$' -bench LoadCopy -benchtime 200x ./internal/bytesview/
func BenchmarkLoadCopy(b *testing.B) {
	const pool = 256 << 20
	src := make([]byte, pool)
	for i := range src {
		src[i] = byte(i * 7)
	}
	for _, n := range []int{256 << 10, 1 << 20, 2 << 20, 4 << 20} {
		for _, g := range []int{1, 2} {
			for _, k := range []struct {
				name string
				f    func(dst, src []byte)
			}{{"copy", func(dst, src []byte) { copy(dst, src) }}, {"kernel", streamCopy}} {
				b.Run(fmt.Sprintf("%s/%dK/g=%d", k.name, n>>10, g), func(b *testing.B) {
					b.SetBytes(int64(n))
					payloads := pool / n
					var wg sync.WaitGroup
					for w := range g {
						wg.Add(1)
						go func(dst []byte) {
							defer wg.Done()
							for i := 0; i < b.N; i++ {
								at := (i*g + w) % payloads * n
								k.f(dst, src[at:at+n])
							}
						}(make([]byte, n))
					}
					wg.Wait()
					b.ReportMetric(float64(runtime.NumCPU()), "nproc")
				})
			}
		}
	}
}
