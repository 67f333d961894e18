//go:build !amd64

package serial

// foldFloat64Tile is folders[Float64]: the Go fold, off amd64.
func foldFloat64Tile(a, b []byte) (float64, float64) { return foldTile[float64](a, b) }
