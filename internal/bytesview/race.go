//go:build race

package bytesview

import (
	"runtime"
	"unsafe"
)

// RaceLines tells the race detector what an assembly kernel reads (src) and
// writes (dst): assembly is not instrumented, and without this a copy through
// copyLines or internal/serial's sweepLines would hide from it where copy's
// did not.
func RaceLines(dst, src []byte) {
	runtime.RaceReadRange(unsafe.Pointer(unsafe.SliceData(src)), len(src))
	runtime.RaceWriteRange(unsafe.Pointer(unsafe.SliceData(dst)), len(dst))
}
