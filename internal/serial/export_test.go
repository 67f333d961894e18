//go:build amd64

package serial

// withoutSSE42 runs f as on a CPU the probe found without SSE4.2: every
// sweep takes the tile loop.
func withoutSSE42(f func()) {
	defer func(had bool) { lineKernel = had }(lineKernel)
	lineKernel = false
	f()
}
