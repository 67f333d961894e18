package harness

import (
	"bytes"
	"strings"
	"testing"

	"pmemcpy/internal/adios"
	"pmemcpy/internal/core"
	"pmemcpy/internal/netcdf"
	"pmemcpy/internal/pio"
	"pmemcpy/internal/pnetcdf"
	"pmemcpy/internal/sim"
	"pmemcpy/internal/workload"
)

// smallParams returns a fast, verified experiment configuration.
func smallParams(ranks int) Params {
	const scale = 2048.0
	return Params{
		TotalBytes: int64(40e9 / scale),
		Vars:       4,
		Ranks:      ranks,
		Config:     sim.DefaultConfig().Scale(scale),
		Verify:     true,
		Runs:       1,
	}
}

func TestRunAllLibrariesVerified(t *testing.T) {
	libs := []pio.Library{
		adios.Library{},
		netcdf.Library{},
		pnetcdf.Library{},
		core.Library{},
		core.Library{MapSync: true},
	}
	for _, lib := range libs {
		res, err := Run(lib, smallParams(8))
		if err != nil {
			t.Fatalf("%s: %v", lib.Name(), err)
		}
		if res.Write <= 0 || res.Read <= 0 {
			t.Fatalf("%s: degenerate result %+v", lib.Name(), res)
		}
		if res.Bytes <= 0 {
			t.Fatalf("%s: no bytes recorded", lib.Name())
		}
	}
}

func TestRunDeterministic(t *testing.T) {
	// Data-path costs are fully deterministic (preset pool concurrency);
	// only metadata pointer-chase counts depend on goroutine interleaving
	// (free-list order), which contributes well under 0.1% of phase time.
	a, err := Run(core.Library{}, smallParams(8))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(core.Library{}, smallParams(8))
	if err != nil {
		t.Fatal(err)
	}
	within := func(x, y float64) bool {
		d := x - y
		if d < 0 {
			d = -d
		}
		return d <= 0.001*x
	}
	if !within(a.Write.Seconds(), b.Write.Seconds()) || !within(a.Read.Seconds(), b.Read.Seconds()) {
		t.Fatalf("nondeterministic beyond tolerance: %+v vs %+v", a, b)
	}
}

// TestPaperShapeHolds checks the paper's headline claims at 24 procs on a
// reduced workload: pMEMCPY-A beats ADIOS on writes, beats NetCDF by >= 2x
// on writes and >= 3.5x on reads, beats ADIOS by >= 1.5x on reads, and
// PMCPY-B loses the advantage.
func TestPaperShapeHolds(t *testing.T) {
	p := smallParams(24)
	run := func(lib pio.Library) Result {
		r, err := Run(lib, p)
		if err != nil {
			t.Fatalf("%s: %v", lib.Name(), err)
		}
		return r
	}
	a := run(core.Library{})
	b := run(core.Library{MapSync: true})
	ad := run(adios.Library{})
	nc := run(netcdf.Library{})

	if !(a.Write < ad.Write) {
		t.Errorf("PMCPY-A write %v not faster than ADIOS %v", a.Write, ad.Write)
	}
	if s := Speedup(nc, a, "write"); s < 2.0 {
		t.Errorf("write speedup over NetCDF = %.2fx, want >= 2.0x", s)
	}
	if s := Speedup(ad, a, "read"); s < 1.5 {
		t.Errorf("read speedup over ADIOS = %.2fx, want >= 1.5x", s)
	}
	if s := Speedup(nc, a, "read"); s < 3.5 {
		t.Errorf("read speedup over NetCDF = %.2fx, want >= 3.5x", s)
	}
	// MAP_SYNC erases the advantage: B is slower than A on both phases and
	// lands at or above ADIOS-class read times.
	if !(b.Write > a.Write && b.Read > a.Read) {
		t.Errorf("PMCPY-B (%v/%v) not slower than PMCPY-A (%v/%v)",
			b.Write, b.Read, a.Write, a.Read)
	}
	if float64(b.Read) < 0.8*float64(ad.Read) {
		t.Errorf("PMCPY-B read %v much faster than ADIOS %v; paper says no better", b.Read, ad.Read)
	}
}

func TestSweepAndRendering(t *testing.T) {
	p := smallParams(0)
	results, err := Sweep([]Entry{{Lib: core.Library{}}, {Lib: adios.Library{}}}, []int{8, 16}, p)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 4 {
		t.Fatalf("results = %d", len(results))
	}
	var tbl bytes.Buffer
	Table(&tbl, results, "write")
	out := tbl.String()
	for _, want := range []string{"#PROCS", "PMCPY-A", "ADIOS", "8", "16"} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}
	var csv bytes.Buffer
	CSV(&csv, results)
	if lines := strings.Count(csv.String(), "\n"); lines != 5 {
		t.Errorf("CSV lines = %d, want 5 (header + 4 rows)", lines)
	}
	if !strings.Contains(csv.String(), "library,ranks,bytes,write_s,read_s") {
		t.Error("CSV header missing")
	}
}

func TestResultString(t *testing.T) {
	r := Result{Library: "PMCPY-A", Ranks: 24, Bytes: 40_000_000_000}
	s := r.String()
	if !strings.Contains(s, "PMCPY-A") || !strings.Contains(s, "n=24") {
		t.Errorf("String() = %q", s)
	}
}

func TestReadPatternRestartVerified(t *testing.T) {
	// Write with 24 ranks, restart-read with 8: reads cross writer blocks.
	p := smallParams(24)
	p.Pattern = workload.PatternRestart
	p.ReadRanks = 8
	for _, lib := range []pio.Library{core.Library{}, adios.Library{}, netcdf.Library{}} {
		res, err := Run(lib, p)
		if err != nil {
			t.Fatalf("%s: %v", lib.Name(), err)
		}
		if res.Read <= 0 {
			t.Fatalf("%s: no read time", lib.Name())
		}
	}
}

func TestReadPatternPlaneVerified(t *testing.T) {
	p := smallParams(8)
	p.Pattern = workload.PatternPlane
	for _, lib := range []pio.Library{core.Library{}, adios.Library{}, netcdf.Library{}} {
		res, err := Run(lib, p)
		if err != nil {
			t.Fatalf("%s: %v", lib.Name(), err)
		}
		if res.Read <= 0 {
			t.Fatalf("%s: no read time", lib.Name())
		}
	}
}

func TestPlanePatternFavorsContiguousLayouts(t *testing.T) {
	// The "Six degrees" result: log-structured formats (ADIOS) pay for plane
	// reads because whole blocks must be fetched to extract thin slices,
	// while pMEMCPY's byte-addressable mapped blocks only move the
	// intersections. Check ADIOS's plane-read penalty relative to its own
	// symmetric read exceeds pMEMCPY's.
	base := smallParams(8)
	base.Verify = false
	plane := base
	plane.Pattern = workload.PatternPlane

	ratio := func(lib pio.Library) float64 {
		sym, err := Run(lib, base)
		if err != nil {
			t.Fatal(err)
		}
		pl, err := Run(lib, plane)
		if err != nil {
			t.Fatal(err)
		}
		// Normalize by bytes actually read: symmetric reads the whole var,
		// planes read 1/gdim0 of it; compare cost per byte via the ratio of
		// phase times scaled by volume is overkill — the penalty ratio of
		// plane time relative to the data volume it returns tells the story.
		return pl.Read.Seconds() / sym.Read.Seconds()
	}
	adiosRatio := ratio(adios.Library{})
	coreRatio := ratio(core.Library{})
	if adiosRatio <= coreRatio {
		t.Fatalf("plane/symmetric ratio: ADIOS %.3f <= PMCPY %.3f; log format should pay more",
			adiosRatio, coreRatio)
	}
}
