//go:build !amd64

package bytesview

// streamCopy is copy off amd64: there is no line kernel.
func streamCopy(dst, src []byte) { copy(dst, src) }
