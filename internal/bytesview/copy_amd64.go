package bytesview

import "unsafe"

// copyLines is copy_amd64.s: copies the 3·l bytes of src to dst as three
// strands of l bytes, l > 0 a multiple of 64, dst 16-byte aligned.
//
//go:noescape
func copyLines(dst, src []byte, l int)

// streamCopy copies src into dst, len(dst) == len(src), the slices disjoint.
// The body from dst's first 64-byte-aligned byte is cut into chunks of three
// strands of l bytes, l a multiple of 64 and at most StrandMax, one copyLines
// call each; the head before the body and the tail of less than three lines
// after it go through copy.
func streamCopy(dst, src []byte) {
	h := min(int(-uintptr(unsafe.Pointer(unsafe.SliceData(dst)))&63), len(src))
	copy(dst[:h], src[:h])
	dst, src = dst[h:], src[h:]
	for len(src) >= 3*64 {
		l := min(len(src)/(3*64)*64, StrandMax)
		body, from := dst[:3*l], src[:3*l]
		RaceLines(body, from)
		copyLines(body, from, l)
		dst, src = dst[3*l:], src[3*l:]
	}
	copy(dst, src)
}
