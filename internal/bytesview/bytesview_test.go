package bytesview

import (
	"encoding/binary"
	"math"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestNativeIsLittleEndian(t *testing.T) {
	// The build targets of this reproduction (amd64, arm64) are all LE; the
	// codecs depend on it, so make the assumption explicit.
	if !NativeIsLittleEndian() {
		t.Fatal("host is not little-endian; codecs would need a swap path")
	}
}

func TestSize(t *testing.T) {
	if Size[int8]() != 1 || Size[uint8]() != 1 {
		t.Error("8-bit size wrong")
	}
	if Size[int16]() != 2 || Size[uint16]() != 2 {
		t.Error("16-bit size wrong")
	}
	if Size[int32]() != 4 || Size[uint32]() != 4 || Size[float32]() != 4 {
		t.Error("32-bit size wrong")
	}
	if Size[int64]() != 8 || Size[uint64]() != 8 || Size[float64]() != 8 {
		t.Error("64-bit size wrong")
	}
}

func TestBytesEmpty(t *testing.T) {
	if Bytes[float64](nil) != nil {
		t.Error("Bytes(nil) != nil")
	}
	if Of[float64](nil) != nil {
		t.Error("Of(nil) != nil")
	}
}

func TestBytesLayoutMatchesBinaryLE(t *testing.T) {
	vals := []uint32{0x01020304, 0xCAFEBABE}
	b := Bytes(vals)
	if len(b) != 8 {
		t.Fatalf("len = %d, want 8", len(b))
	}
	if got := binary.LittleEndian.Uint32(b[0:4]); got != vals[0] {
		t.Fatalf("first word %#x, want %#x", got, vals[0])
	}
	if got := binary.LittleEndian.Uint32(b[4:8]); got != vals[1] {
		t.Fatalf("second word %#x, want %#x", got, vals[1])
	}
}

func TestBytesAliases(t *testing.T) {
	vals := []int64{1, 2, 3}
	b := Bytes(vals)
	binary.LittleEndian.PutUint64(b[8:16], 99)
	if vals[1] != 99 {
		t.Fatalf("write through view not visible: vals[1] = %d", vals[1])
	}
}

func TestOfRoundTripFloat64(t *testing.T) {
	f := func(vals []float64) bool {
		got := Of[float64](Bytes(vals))
		if len(got) != len(vals) {
			return false
		}
		for i := range vals {
			// NaN-safe comparison via bit pattern.
			if math.Float64bits(got[i]) != math.Float64bits(vals[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestOfRoundTripInt32(t *testing.T) {
	f := func(vals []int32) bool {
		got := Of[int32](Bytes(vals))
		if len(got) != len(vals) {
			return false
		}
		for i := range vals {
			if got[i] != vals[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestOfPanicsOnBadLength(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Of with odd length did not panic")
		}
	}()
	Of[uint64](make([]byte, 12))
}

// misalignedUint64 returns an 8-byte window of buf whose base address is not
// 8-aligned, regardless of where the allocator placed buf.
func misalignedUint64(t *testing.T, buf []byte) []byte {
	t.Helper()
	for off := 0; off < 8; off++ {
		w := buf[off : off+8]
		if !Aligned[uint64](w) {
			return w
		}
	}
	t.Fatal("could not construct a misaligned window")
	return nil
}

func TestOfPanicsOnMisalignment(t *testing.T) {
	w := misalignedUint64(t, make([]byte, 17))
	defer func() {
		if recover() == nil {
			t.Fatal("Of with misaligned base did not panic")
		}
	}()
	Of[uint64](w)
}

func TestOfCopyHandlesMisalignment(t *testing.T) {
	buf := make([]byte, 17)
	for i := range buf {
		buf[i] = byte(i)
	}
	w := misalignedUint64(t, buf)
	got := OfCopy[uint64](w)
	want := binary.LittleEndian.Uint64(w)
	if len(got) != 1 || got[0] != want {
		t.Fatalf("OfCopy = %v, want [%#x]", got, want)
	}
}

func TestTryOf(t *testing.T) {
	if s, ok := TryOf[uint64](nil); !ok || s != nil {
		t.Errorf("TryOf(nil) = (%v, %v), want (nil, true)", s, ok)
	}
	if _, ok := TryOf[uint64](make([]byte, 12)); ok {
		t.Error("TryOf accepted a length not a multiple of the element size")
	}
	w := misalignedUint64(t, make([]byte, 17))
	if _, ok := TryOf[uint64](w); ok {
		t.Error("TryOf accepted a misaligned base")
	}
	vals := []uint64{0xCAFEBABE}
	got, ok := TryOf[uint64](Bytes(vals))
	if !ok || len(got) != 1 || &got[0] != &vals[0] {
		t.Fatalf("TryOf aligned = (%v, %v), want aliasing view", got, ok)
	}
}

func TestOfCopyAliasesWhenAligned(t *testing.T) {
	vals := []uint64{42}
	b := Bytes(vals)
	view := OfCopy[uint64](b)
	view[0] = 7
	if vals[0] != 7 {
		t.Fatal("OfCopy copied despite alignment")
	}
}

// TestOfTakesGoAlignment: a view is judged by Go's alignment for the element,
// not by its size. A [N]uint64 is only as aligned as uint64 is — 4 bytes on
// 386 — and its bytes must view as []int64 wherever Go placed it. Behind a
// uint32 the array sits at offset 4 on 386 and the two elements are 36 bytes
// apart, so one of the two arrays is not 8-byte aligned there.
func TestOfTakesGoAlignment(t *testing.T) {
	var held [2]struct {
		pad   uint32
		words [4]uint64
	}
	for i := range held {
		w := &held[i].words
		b := Bytes(w[:])
		if s := Of[int64](b); len(s) != 4 || unsafe.Pointer(&s[0]) != unsafe.Pointer(&w[0]) {
			t.Fatalf("array %d: Of = %v, want a 4-element view aliasing it", i, s)
		}
		if s, ok := TryOf[int64](b); !ok || len(s) != 4 {
			t.Fatalf("array %d: TryOf = (%v, %v), want a 4-element view", i, s, ok)
		}
	}
}
