//go:build !amd64

package serial

// foldFloat64Tile is folders[Float64]: the Go fold, off amd64.
func foldFloat64Tile(a, b []byte) (float64, float64) { return foldTile[float64](a, b) }

// sweepFloat64 is sweep's float64 path with the CRC on: the tile loop, off
// amd64.
func sweepFloat64(dst, src []byte, r *valueRange, crc uint32, _ bool) uint32 {
	return sweepTiles(dst, src, Float64, r, crc, true)
}
