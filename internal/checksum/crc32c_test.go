package checksum

import (
	"fmt"
	"hash/crc32"
	"math/rand"
	"testing"
)

// Sum dispatches to the stdlib (and so possibly to hardware CRC32
// instructions); the portable slice-by-8 walk is the host-independent
// reference. All three — Sum, the stdlib table path, and sumGeneric — must
// agree bit for bit on every input.
var ref = crc32.MakeTable(crc32.Castagnoli)

func TestSumMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 2, 3, 7, 8, 9, 15, 16, 17, 63, 64, 65, 255, 4096, 1<<16 + 3} {
		p := make([]byte, n)
		rng.Read(p)
		want := crc32.Checksum(p, ref)
		if got := Sum(p); got != want {
			t.Fatalf("Sum(%d bytes) = %#x, reference %#x", n, got, want)
		}
		if got := sumGeneric(0, p); got != want {
			t.Fatalf("sumGeneric(%d bytes) = %#x, reference %#x", n, got, want)
		}
	}
}

// TestGenericChains pins the portable walk's incremental form: splitting the
// input anywhere must not change the sum.
func TestGenericChains(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	p := make([]byte, 10000)
	rng.Read(p)
	whole := sumGeneric(0, p)
	for _, cut := range []int{0, 1, 7, 8, 9, 100, 9999, 10000} {
		if got := sumGeneric(sumGeneric(0, p[:cut]), p[cut:]); got != whole {
			t.Fatalf("sumGeneric chain split at %d = %#x, want %#x", cut, got, whole)
		}
	}
}

func TestUpdateChains(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	p := make([]byte, 10000)
	rng.Read(p)
	whole := Sum(p)
	for _, cut := range []int{0, 1, 7, 8, 9, 100, 9999, 10000} {
		if got := Update(Sum(p[:cut]), p[cut:]); got != whole {
			t.Fatalf("Update chain split at %d = %#x, want %#x", cut, got, whole)
		}
	}
}

func TestCombine(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	p := make([]byte, 50000)
	rng.Read(p)
	whole := Sum(p)
	for _, cut := range []int{0, 1, 63, 64, 65, 12345, 49999, 50000} {
		a, b := p[:cut], p[cut:]
		if got := Combine(Sum(a), Sum(b), int64(len(b))); got != whole {
			t.Fatalf("Combine split at %d = %#x, want %#x", cut, got, whole)
		}
	}
}

// TestCombineMany folds a multi-shard split the way the parallel store
// engine does: shard CRCs computed independently, folded left to right.
func TestCombineMany(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	p := make([]byte, 1<<18)
	rng.Read(p)
	for _, shards := range []int{2, 3, 7, 16} {
		chunk := len(p) / shards
		crc := uint32(0)
		for i := 0; i < shards; i++ {
			lo, hi := i*chunk, (i+1)*chunk
			if i == shards-1 {
				hi = len(p)
			}
			crc = Combine(crc, Sum(p[lo:hi]), int64(hi-lo))
		}
		if want := Sum(p); crc != want {
			t.Fatalf("%d-shard combine = %#x, want %#x", shards, crc, want)
		}
	}
}

func TestCombineZeroLength(t *testing.T) {
	if got := Combine(0xdeadbeef, 0x1234, 0); got != 0xdeadbeef {
		t.Fatalf("Combine with len2=0 = %#x, want crc1 unchanged", got)
	}
}

func BenchmarkSum64K(b *testing.B) {
	p := make([]byte, 64<<10)
	rand.New(rand.NewSource(5)).Read(p)
	b.SetBytes(int64(len(p)))
	for i := 0; i < b.N; i++ {
		Sum(p)
	}
}

// TestCombineLongLengths covers lengths no buffer can hold: advancing through
// a+b zero bytes must equal advancing through a, then b, and a length past
// 2^31 — where a table of x^(2^k) that wrapped at 32 entries would go wrong
// for this polynomial — must equal the same distance walked in 1 MB steps.
func TestCombineLongLengths(t *testing.T) {
	const crc = uint32(0xdeadbeef)
	step := crc
	for i := 0; i < 1<<13; i++ {
		step = Combine(step, 0, 1<<20)
	}
	if got := Combine(crc, 0, 1<<33); got != step {
		t.Fatalf("Combine over 2^33 = %#x, 8192 steps of 2^20 = %#x", got, step)
	}
	for _, n := range []int64{1<<40 + 12345, 1<<62 + 1<<31 + 7} {
		a, b := n/3, n-n/3
		if got, want := Combine(crc, 0x1234, n), Combine(Combine(crc, 0, a), 0x1234, b); got != want {
			t.Fatalf("Combine over %d = %#x, over %d then %d = %#x", n, got, a, b, want)
		}
	}
}

// FuzzCombine holds Combine to its definition: the CRC of a concatenation,
// from the parts' CRCs, wherever the split falls and whatever CRC the first
// part continues from.
func FuzzCombine(f *testing.F) {
	f.Add([]byte{}, uint16(0), uint32(0))
	f.Add([]byte("hello, persistent world"), uint16(7), uint32(0xdeadbeef))
	f.Add(make([]byte, 5000), uint16(4096), uint32(1))
	f.Fuzz(func(t *testing.T, p []byte, cut uint16, seed uint32) {
		k := int(cut) % (len(p) + 1)
		a, b := p[:k], p[k:]
		if got, want := Combine(Update(seed, a), Sum(b), int64(len(b))), Update(seed, p); got != want {
			t.Fatalf("Combine split %d/%d from %#x = %#x, want %#x", k, len(p), seed, got, want)
		}
	})
}

func BenchmarkCombine(b *testing.B) {
	for _, n := range []int64{512 << 10, 4 << 20, 4<<20 - 1} {
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			crc := uint32(0xdeadbeef)
			for i := 0; i < b.N; i++ {
				crc = Combine(crc, 0x1234, n)
			}
			sink = crc
		})
	}
}

var sink uint32
