package filefmt_test

import (
	"crypto/sha256"
	"fmt"
	"testing"

	"pmemcpy/internal/adios"
	"pmemcpy/internal/mpi"
	"pmemcpy/internal/netcdf"
	"pmemcpy/internal/pio"
	"pmemcpy/internal/pio/piotest"
	"pmemcpy/internal/pnetcdf"
	"pmemcpy/internal/sim"
)

// TestFileBytesPinned holds every baseline's on-file format still: each
// library writes the piotest 3-D decomposition at 1 and 3 ranks and the closed
// file must hash to the value captured before the four formats were moved
// onto the shared substrates.
func TestFileBytesPinned(t *testing.T) {
	cases := []struct {
		name string
		lib  pio.Library
		want [2]string // sha256 of the file written by 1 and by 3 ranks
	}{
		{"ADIOS", adios.Library{}, [2]string{
			"7b7e6c904e60217caee60be9b4d9d8f46d9370004a11c42bc654d93f770fac1b",
			"1df1f592ffa6f03bde9f1fe7a83f632420daa3b6a6bdf5874a9472bd0eb05617"}},
		{"NetCDF", netcdf.Library{}, [2]string{
			"00074bf2e216cf79c2482fa1f5b7f417e5706821ad72043e5cbb4c40d57be66b",
			"00074bf2e216cf79c2482fa1f5b7f417e5706821ad72043e5cbb4c40d57be66b"}},
		{"NetCDF+Fill", netcdf.Library{Fill: true}, [2]string{
			"00074bf2e216cf79c2482fa1f5b7f417e5706821ad72043e5cbb4c40d57be66b",
			"00074bf2e216cf79c2482fa1f5b7f417e5706821ad72043e5cbb4c40d57be66b"}},
		{"NetCDF-chunked", netcdf.Library{Chunked: true}, [2]string{
			"9118ac2f9f2dc6945bb263b276b60264a5c11500548a117713010834be4e534b",
			"6c2dc7175c994cc6b30f5ddcba5fef82ee23214c7354cab270d92836f67b99dd"}},
		{"chunked+shuffle+rle", netcdf.Library{Chunked: true, Filter: "shuffle+rle"}, [2]string{
			"34ab2d467d7b958c4277eb7b32ba5dd0058239e6456e639050b065864db71a55",
			"8f6bfdd23cadcd196b4c7124c03be23a10c8370265618e6c3abae72b9541a2a2"}},
		{"pNetCDF", pnetcdf.Library{}, [2]string{
			"ff8678ecd40ba13d63a74c25989a339a532a3674c0a2b1d3054d75392acaf50b",
			"ff8678ecd40ba13d63a74c25989a339a532a3674c0a2b1d3054d75392acaf50b"}},
	}
	for _, tc := range cases {
		for i, ranks := range []int{1, 3} {
			n := piotest.NewNode()
			_, err := mpi.Run(n.Machine, ranks, func(c *mpi.Comm) error {
				return piotest.WriteCube(c, n, tc.lib, "/pinned")
			})
			if err != nil {
				t.Fatalf("%s at %d ranks: %v", tc.name, ranks, err)
			}
			clk := new(sim.Clock)
			f, err := n.FS.Open(clk, "/pinned")
			if err != nil {
				t.Fatal(err)
			}
			raw := make([]byte, f.Size())
			if _, err := f.ReadAt(clk, raw, 0); err != nil {
				t.Fatal(err)
			}
			if got := fmt.Sprintf("%x", sha256.Sum256(raw)); got != tc.want[i] {
				t.Errorf("%s at %d ranks: %d-byte file hashes to %s, want %s", tc.name, ranks, len(raw), got, tc.want[i])
			}
		}
	}
}
