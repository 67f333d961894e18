package netcdf_test

import (
	"testing"

	"pmemcpy/internal/netcdf"
	"pmemcpy/internal/pio/piotest"
)

func TestConformance(t *testing.T) {
	piotest.RunConformance(t, netcdf.Library{})
}

func TestConformanceFillMode(t *testing.T) {
	piotest.RunConformance(t, netcdf.Library{Fill: true})
}

func TestConformanceChunked(t *testing.T) {
	piotest.RunConformance(t, netcdf.Library{Chunked: true})
}

func TestConformanceChunkedWithFilters(t *testing.T) {
	for _, flt := range []string{"rle", "shuffle", "shuffle+rle"} {
		t.Run(flt, func(t *testing.T) {
			piotest.RunConformance(t, netcdf.Library{Chunked: true, Filter: flt})
		})
	}
}
