//go:build race

package serial

import (
	"runtime"
	"unsafe"
)

// raceLines tells the race detector what sweepLines reads and writes:
// assembly is not instrumented, and without this the store of a payload
// would hide from it where copy's did not.
func raceLines(dst, src []byte) {
	runtime.RaceReadRange(unsafe.Pointer(unsafe.SliceData(src)), len(src))
	runtime.RaceWriteRange(unsafe.Pointer(unsafe.SliceData(dst)), len(dst))
}
