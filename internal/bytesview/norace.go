//go:build !race

package bytesview

// RaceLines is a no-op without the race detector (race.go).
func RaceLines(dst, src []byte) {}
