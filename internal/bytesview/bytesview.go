// Package bytesview provides zero-copy reinterpretation between numeric
// slices and their underlying bytes. It is the Go analogue of the pointer
// casts a C/C++ I/O library performs when it hands application arrays to
// memcpy: the returned views alias the original memory, so no data moves.
//
// On-disk formats in this repository are little-endian. The views returned
// here are in host byte order; NativeIsLittleEndian reports whether the two
// coincide (true on all platforms this reproduction targets). Codecs consult
// it so a big-endian port would fail loudly instead of corrupting data.
package bytesview

import (
	"unsafe"
)

// Element is the set of fixed-size numeric element types the I/O libraries
// move in bulk.
type Element interface {
	~int8 | ~uint8 | ~int16 | ~uint16 | ~int32 | ~uint32 |
		~int64 | ~uint64 | ~float32 | ~float64
}

// NativeIsLittleEndian reports whether the host stores integers
// little-endian, matching the repository's on-storage format.
func NativeIsLittleEndian() bool {
	x := uint16(1)
	return *(*byte)(unsafe.Pointer(&x)) == 1
}

// Size returns the in-memory size of one element of type T in bytes.
func Size[T Element]() int {
	var z T
	return int(unsafe.Sizeof(z))
}

// Bytes returns the raw bytes backing s without copying. The view is valid
// for as long as s is; writes through the view are visible in s.
func Bytes[T Element](s []T) []byte {
	if len(s) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), len(s)*Size[T]())
}

// Aligned reports whether b's base address is suitably aligned to be viewed
// as a slice of T: Go's alignment for T, which is not always its size (an
// int64 needs only 4 bytes on 386).
func Aligned[T Element](b []byte) bool {
	if len(b) == 0 {
		return true
	}
	var z T
	return uintptr(unsafe.Pointer(&b[0]))%unsafe.Alignof(z) == 0
}

// OfCopy reinterprets b as a slice of T like Of, but falls back to copying
// into a freshly allocated (and therefore aligned) slice when b is
// misaligned. len(b) must still be a multiple of T's size.
func OfCopy[T Element](b []byte) []T {
	if Aligned[T](b) {
		return Of[T](b)
	}
	es := Size[T]()
	if len(b)%es != 0 {
		panic("bytesview: byte length not a multiple of element size")
	}
	out := make([]T, len(b)/es)
	copy(Bytes(out), b)
	return out
}

// TryOf reinterprets b as a slice of T without copying, reporting false
// instead of panicking when b's length is not a multiple of T's size or its
// base address is misaligned for T. Callers that can fall back to a copying
// path (the zero-copy view layer) branch on it; callers holding an allocator
// guarantee use Of and treat violation as the bug it is.
func TryOf[T Element](b []byte) ([]T, bool) {
	if len(b) == 0 {
		return nil, true
	}
	es := Size[T]()
	if len(b)%es != 0 || !Aligned[T](b) {
		return nil, false
	}
	return unsafe.Slice((*T)(unsafe.Pointer(&b[0])), len(b)/es), true
}

// Of reinterprets b as a slice of T without copying. len(b) must be a
// multiple of T's size and b must be aligned for T; both always hold for
// buffers produced by this repository's allocators, which are 8-byte aligned.
// Of panics otherwise, since silent misinterpretation would corrupt data.
func Of[T Element](b []byte) []T {
	if len(b) == 0 {
		return nil
	}
	es := Size[T]()
	if len(b)%es != 0 {
		panic("bytesview: byte length not a multiple of element size")
	}
	if !Aligned[T](b) {
		panic("bytesview: misaligned byte slice")
	}
	return unsafe.Slice((*T)(unsafe.Pointer(&b[0])), len(b)/es)
}
