// Benchmarks regenerating the paper's evaluation artifacts. Each figure/
// table has one benchmark family (see DESIGN.md's per-experiment index).
//
// Wall-clock time of these benchmarks is meaningless — the evaluation runs
// on a virtual-time model of the paper's 24-core PMEM testbed — so every
// benchmark reports the modelled phase time as the custom metric
// "sim-sec/op" (plus the modelled workload size as "GB"). Run with:
//
//	go test -bench=. -benchmem
//
// and read the sim-sec columns exactly like the y-axes of Figures 6 and 7.
// cmd/pmembench prints the same data as tables with the paper's claims
// annotated.
package pmemcpy_test

import (
	"fmt"
	"testing"

	"pmemcpy/internal/adios"
	"pmemcpy/internal/core"
	"pmemcpy/internal/harness"
	"pmemcpy/internal/netcdf"
	"pmemcpy/internal/pio"
	"pmemcpy/internal/pnetcdf"
	"pmemcpy/internal/sim"
)

// benchScale keeps the physical footprint of one benchmark run around
// 40 MB while modelling the paper's full 40 GB workload.
const benchScale = 1024.0

func benchParams(ranks int) harness.Params {
	return harness.Params{
		TotalBytes: int64(40e9 / benchScale),
		Vars:       10,
		Ranks:      ranks,
		Config:     sim.DefaultConfig().Scale(benchScale),
		Runs:       1,
	}
}

// paperLibraries returns the five series of Figures 6 and 7.
func paperLibraries() []pio.Library {
	return []pio.Library{
		adios.Library{},
		netcdf.Library{},
		pnetcdf.Library{},
		core.Library{},
		core.Library{MapSync: true},
	}
}

// paperProcs is the x-axis of Figures 6 and 7.
var paperProcs = []int{8, 16, 24, 32, 48}

func reportPhases(b *testing.B, res harness.Result, phase string) {
	b.Helper()
	switch phase {
	case "write":
		b.ReportMetric(res.Write.Seconds(), "sim-sec/op")
	case "read":
		b.ReportMetric(res.Read.Seconds(), "sim-sec/op")
	}
	b.ReportMetric(float64(res.Bytes)*benchScale/1e9, "modelled-GB")
}

func benchFigure(b *testing.B, phase string) {
	for _, lib := range paperLibraries() {
		for _, procs := range paperProcs {
			b.Run(fmt.Sprintf("%s/procs=%d", lib.Name(), procs), func(b *testing.B) {
				var res harness.Result
				var err error
				for i := 0; i < b.N; i++ {
					res, err = harness.Run(lib, benchParams(procs))
					if err != nil {
						b.Fatal(err)
					}
				}
				reportPhases(b, res, phase)
			})
		}
	}
}

// BenchmarkFig6Write regenerates Figure 6: writing the 40 GB 3-D domain
// (10 rectangles, doubles, equal split) for 8-48 processes across all five
// libraries. Expected shape: PMCPY-A fastest; ~15% over ADIOS and ~2.5x
// over NetCDF/pNetCDF at 24 procs; PMCPY-B between ADIOS and p/NetCDF;
// curves flatten at 24 physical cores.
func BenchmarkFig6Write(b *testing.B) {
	benchFigure(b, "write")
}

// BenchmarkFig7Read regenerates Figure 7: the symmetric read-back.
// Expected shape: PMCPY-A ~2x over ADIOS and ~5x over NetCDF/pNetCDF;
// PMCPY-B no better than ADIOS.
func BenchmarkFig7Read(b *testing.B) {
	benchFigure(b, "read")
}

// benchPair runs one (library, procs) cell for ablation benchmarks.
func benchCell(b *testing.B, lib pio.Library, procs int) harness.Result {
	b.Helper()
	var res harness.Result
	var err error
	for i := 0; i < b.N; i++ {
		res, err = harness.Run(lib, benchParams(procs))
		if err != nil {
			b.Fatal(err)
		}
	}
	return res
}

// BenchmarkAblationStaging is experiment E4: serializing directly into
// mapped PMEM versus staging in DRAM first (the design choice Section 3's
// "Data Transfer and Serialization" paragraph argues for).
func BenchmarkAblationStaging(b *testing.B) {
	for _, cfg := range []struct {
		name string
		lib  pio.Library
	}{
		{"direct", core.Library{}},
		{"staged", core.Library{StagedSerialization: true}},
	} {
		b.Run(cfg.name+"/procs=24", func(b *testing.B) {
			res := benchCell(b, cfg.lib, 24)
			reportPhases(b, res, "write")
		})
	}
}

// BenchmarkAblationLayout is experiment E5: the PMDK hashtable layout versus
// the hierarchical filesystem layout (Section 3, "Data Layout").
func BenchmarkAblationLayout(b *testing.B) {
	for _, cfg := range []struct {
		name string
		lib  pio.Library
	}{
		{"hashtable", core.Library{}},
		{"hierarchy", core.Library{Layout: core.LayoutHierarchy}},
	} {
		b.Run(cfg.name+"/procs=24", func(b *testing.B) {
			res := benchCell(b, cfg.lib, 24)
			reportPhases(b, res, "write")
		})
	}
}

// BenchmarkAblationMapSync is experiment E6: the MAP_SYNC latency penalty
// on writes and reads (PMCPY-A vs PMCPY-B at a fixed process count).
func BenchmarkAblationMapSync(b *testing.B) {
	for _, cfg := range []struct {
		name string
		lib  pio.Library
	}{
		{"off", core.Library{}},
		{"on", core.Library{MapSync: true}},
	} {
		for _, phase := range []string{"write", "read"} {
			b.Run(fmt.Sprintf("mapsync=%s/%s/procs=24", cfg.name, phase), func(b *testing.B) {
				res := benchCell(b, cfg.lib, 24)
				reportPhases(b, res, phase)
			})
		}
	}
}

// BenchmarkSerializers is experiment E7: BP4 (default, with min/max
// characterization) versus the Cap'n-Proto-style flat codec, the
// cereal-style compact codec, and serialization disabled (raw).
func BenchmarkSerializers(b *testing.B) {
	for _, codec := range []string{"bp4", "flat", "cbin", "raw"} {
		for _, phase := range []string{"write", "read"} {
			b.Run(fmt.Sprintf("%s/%s/procs=24", codec, phase), func(b *testing.B) {
				res := benchCell(b, core.Library{Codec: codec}, 24)
				reportPhases(b, res, phase)
			})
		}
	}
}

// BenchmarkAblationChunked compares NetCDF's contiguous layout against
// HDF5-style chunked storage, bare and with the shuffle+rle filter pipeline
// (the chunked-mode-with-filters design the paper describes in §2.1).
func BenchmarkAblationChunked(b *testing.B) {
	for _, cfg := range []struct {
		name string
		lib  pio.Library
	}{
		{"contiguous", netcdf.Library{}},
		{"chunked", netcdf.Library{Chunked: true}},
		{"chunked-shuffle-rle", netcdf.Library{Chunked: true, Filter: "shuffle+rle"}},
	} {
		for _, phase := range []string{"write", "read"} {
			b.Run(fmt.Sprintf("%s/%s/procs=24", cfg.name, phase), func(b *testing.B) {
				res := benchCell(b, cfg.lib, 24)
				reportPhases(b, res, phase)
			})
		}
	}
}

// BenchmarkParallelWrite is experiment E12: the sharded copy-engine sweep.
// The paper scales write throughput by adding processes; this sweep holds the
// process count fixed and adds per-rank copy workers instead, so the same
// device-bandwidth ceiling is approached from within a single rank.
func BenchmarkParallelWrite(b *testing.B) {
	for _, par := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d/procs=8", par), func(b *testing.B) {
			p := benchParams(8)
			var res harness.Result
			var err error
			for i := 0; i < b.N; i++ {
				res, err = harness.Run(core.Library{Parallelism: par}, p)
				if err != nil {
					b.Fatal(err)
				}
			}
			reportPhases(b, res, "write")
		})
	}
}

// BenchmarkAblationFill is the NC_NOFILL ablation the paper mentions in its
// methodology ("we make sure to call nc_def_var_fill() with NC_NOFILL ...
// which causes significant overhead for write workloads").
func BenchmarkAblationFill(b *testing.B) {
	for _, cfg := range []struct {
		name string
		lib  pio.Library
	}{
		{"nofill", netcdf.Library{}},
		{"fill", netcdf.Library{Fill: true}},
	} {
		b.Run(cfg.name+"/procs=24", func(b *testing.B) {
			res := benchCell(b, cfg.lib, 24)
			reportPhases(b, res, "write")
		})
	}
}
