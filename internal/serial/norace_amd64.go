//go:build !race

package serial

// raceLines is a no-op without the race detector (race_amd64.go).
func raceLines(dst, src []byte) {}
