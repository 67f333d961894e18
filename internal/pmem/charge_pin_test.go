package pmem

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pmemcpy/internal/sim"
)

var update = flag.Bool("update", false, "rewrite testdata goldens with the observed values")

// TestChargeNanosPinned holds every virtual-time charge the device issues to
// the exact nanosecond against testdata/charge_ns.golden: the DAX move in both
// directions over {8 B, 4 KB, 1 MB, nothing} x {MAP_SYNC off, on} x {1, 24
// ranks sharing the ports}, one persist, one fence, and the retry back-off of
// 1-4 consecutive transient media errors (the fourth escalates to ErrMedia
// before the persist itself is charged). The figures are the cost model's, so
// a change that only moves where the arithmetic lives must not move them.
func TestChargeNanosPinned(t *testing.T) {
	var got strings.Builder
	for _, ranks := range []int{1, 24} {
		m := sim.NewMachine(sim.DefaultConfig())
		m.SetConcurrency(ranks)
		d := New(m, 4096)
		for _, mapSync := range []bool{false, true} {
			for _, n := range []int64{8, 4096, 1 << 20, 0} {
				var r, w sim.Clock
				d.ChargeRead(&r, n, mapSync)
				d.ChargeWrite(&w, n, mapSync)
				fmt.Fprintf(&got, "move ranks=%d mapsync=%v bytes=%d read=%d write=%d\n",
					ranks, mapSync, n, int64(r.Now()), int64(w.Now()))
			}
		}
	}
	d := New(testMachine(), 4096)
	var p, f sim.Clock
	if err := d.Persist(&p, 0, 256, ptTest); err != nil {
		t.Fatal(err)
	}
	d.Fence(&f, ptTest)
	fmt.Fprintf(&got, "persist %d\nfence %d\n", int64(p.Now()), int64(f.Now()))
	for failures := 1; failures <= 4; failures++ {
		var clk sim.Clock
		d.InjectTransient(0, failures)
		err := d.Persist(&clk, 0, 64, ptTest)
		if err != nil && !errors.Is(err, ErrMedia) {
			t.Fatal(err)
		}
		fmt.Fprintf(&got, "persist transient=%d media-error=%v %d\n", failures, err != nil, int64(clk.Now()))
	}

	goldenPath := filepath.Join("testdata", "charge_ns.golden")
	if *update {
		if err := os.WriteFile(goldenPath, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("reading golden (regenerate with -update): %v", err)
	}
	if got.String() != string(want) {
		t.Errorf("device charges drifted from %s\ngot:\n%s", goldenPath, got.String())
	}
}
