package bytesview

import "unsafe"

// StreamMin is the length from which stored bytes move past the cache: Copy
// streams from it, and so does the store sweep (internal/serial). Go's own
// memmove turns to non-temporal stores at the same 1 MiB, so Copy changes the
// copy loop, never the cache policy. Measured end to end in EXPERIMENTS "The
// fused sweep rung" (stores) and "The load copy rung" (loads). A constant,
// not an option.
const StreamMin = 1 << 20

// StrandMax bounds one call of an assembly line kernel — copyLines here,
// sweepLines in internal/serial — to three strands of at most 256 KiB. Go
// does not preempt assembly, so a goroutine inside a kernel holds up a
// stop-the-world and the scheduler until it returns; a call moves its
// 768 KiB in about 0.1 ms.
const StrandMax = 256 << 10

// Copy is the builtin copy for bytes on their way out of storage: it copies
// min(len(dst), len(src)) bytes and returns that count. Below StreamMin, and
// for overlapping slices (a caller's buffer may alias the mapping, as a
// view's bytes do), it is copy itself. From StreamMin on it is the
// streaming copy: on amd64 the head up to dst's first 64-byte boundary and
// the tail of less than three lines go through copy, the body through
// copyLines (copy_amd64.s) three strands at a time, every line one set of
// unaligned loads and non-temporal stores; elsewhere it is copy.
func Copy(dst, src []byte) int {
	n := min(len(dst), len(src))
	if n < StreamMin || overlap(dst[:n], src[:n]) {
		return copy(dst, src)
	}
	streamCopy(dst[:n], src[:n])
	return n
}

// overlap reports whether a and b, both non-empty, share a byte.
func overlap(a, b []byte) bool {
	pa, pb := uintptr(unsafe.Pointer(unsafe.SliceData(a))), uintptr(unsafe.Pointer(unsafe.SliceData(b)))
	return pa < pb+uintptr(len(b)) && pb < pa+uintptr(len(a))
}
