package core_test

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"pmemcpy/internal/bytesview"
	"pmemcpy/internal/core"
	"pmemcpy/internal/mpi"
	"pmemcpy/internal/obs"
	"pmemcpy/internal/serial"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files with the observed output")

// goldenScript is the deterministic workload behind the metrics golden file:
// one rank, concurrency 1, a fixed op sequence touching every instrument
// family (alloc/store/load for both datum and block paths, compact, delete).
func goldenScript(p *core.PMEM) error {
	vals := make([]float64, 64)
	for i := range vals {
		vals[i] = float64(i)
	}
	raw := bytesview.Bytes(vals)
	if err := p.Alloc("grid", serial.Float64, []uint64{128}); err != nil {
		return err
	}
	if err := p.StoreBlock("grid", []uint64{0}, []uint64{64}, raw); err != nil {
		return err
	}
	// Overwrite the same region so Compact has a shadowed block to free.
	if err := p.StoreBlock("grid", []uint64{0}, []uint64{64}, raw); err != nil {
		return err
	}
	if err := p.LoadBlock("grid", []uint64{0}, []uint64{64}, make([]byte, len(raw))); err != nil {
		return err
	}
	if _, err := p.Compact(context.Background(), "grid"); err != nil {
		return err
	}
	if err := p.StoreDatum("step", &serial.Datum{Type: serial.Int64, Payload: bytesview.Bytes([]int64{42})}); err != nil {
		return err
	}
	if _, err := p.LoadDatum("step"); err != nil {
		return err
	}
	if _, err := p.Delete("step"); err != nil {
		return err
	}
	return nil
}

// TestMetricsSnapshotGolden pins the Metrics() snapshot — series names,
// labels, kinds, and the deterministic virtual-time values the golden
// workload produces — against testdata/metrics_snapshot.golden. The snapshot
// is the wire schema of PMEM.Metrics() and the input to the Prometheus
// exposition, so changes here are API changes: regenerate with
// `go test ./internal/core/ -run MetricsSnapshotGolden -update` and review
// the diff like any other interface change.
func TestMetricsSnapshotGolden(t *testing.T) {
	var snap obs.Snapshot
	single(t, &core.Options{Metrics: true}, func(p *core.PMEM) error {
		if err := goldenScript(p); err != nil {
			return err
		}
		snap = p.Metrics()
		return nil
	})

	got, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')

	goldenPath := filepath.Join("testdata", "metrics_snapshot.golden")
	if *updateGolden {
		if err := os.WriteFile(goldenPath, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("reading golden (regenerate with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("metrics snapshot drifted from %s (regenerate with -update and review the diff)\ngot:\n%s", goldenPath, got)
	}
}

// TestMetricsAlwaysOnCounters pins the enabled/disabled contract: op counters
// count regardless of Options.Metrics, and histograms fill only when it is set.
func TestMetricsAlwaysOnCounters(t *testing.T) {
	run := func(o *core.Options) obs.Snapshot {
		var snap obs.Snapshot
		single(t, o, func(p *core.PMEM) error {
			if err := goldenScript(p); err != nil {
				return err
			}
			snap = p.Metrics()
			return nil
		})
		return snap
	}

	off := run(nil)
	if got := off.Get("pmemcpy_op_total"); got != 8 {
		t.Errorf("ops counted with metrics off = %d, want 8", got)
	}
	if got := off.Get("pmemcpy_op_latency_ns"); got != 0 {
		t.Errorf("latency observations with metrics off = %d, want 0", got)
	}
	if off.Get("pmemcpy_device_persists_total") == 0 {
		t.Error("device bridge series empty with metrics off")
	}

	on := run(&core.Options{Metrics: true})
	if got := on.Get("pmemcpy_op_latency_ns"); got != 8 {
		t.Errorf("latency observations with metrics on = %d, want 8", got)
	}
}

// TestTraceAttribution runs a two-rank workload with tracing on and checks
// that persist points land inside the span of the op that issued them, on the
// clock of the issuing rank — the attribution rule the tracer builds on.
func TestTraceAttribution(t *testing.T) {
	n := newNode()
	var spans []obs.Span
	_, err := mpi.Run(n.Machine, 2, func(c *mpi.Comm) error {
		p, err := core.Mmap(c, n, "/trace.pool", core.OptionsArg(&core.Options{Tracing: true}))
		if err != nil {
			return err
		}
		if err := p.Alloc("grid", serial.Float64, []uint64{128}); err != nil {
			return err
		}
		vals := make([]float64, 64)
		off := uint64(c.Rank()) * 64
		raw := bytesview.Bytes(vals)
		if err := p.StoreBlock("grid", []uint64{off}, []uint64{64}, raw); err != nil {
			return err
		}
		if err := p.LoadBlock("grid", []uint64{off}, []uint64{64}, make([]byte, len(raw))); err != nil {
			return err
		}
		if c.Rank() == 0 {
			// Munmap is a collective barrier, so by the time it returns every
			// rank's ops have completed and their spans are recorded.
			defer func() { spans = p.TraceSpans() }()
		}
		return p.Munmap()
	})
	if err != nil {
		t.Fatal(err)
	}

	storeRanks := map[int]bool{}
	for _, sp := range spans {
		if sp.EndNS < sp.StartNS {
			t.Errorf("span %s(%s) rank %d ends before it starts: [%d, %d]", sp.Op, sp.ID, sp.Rank, sp.StartNS, sp.EndNS)
		}
		for _, pt := range sp.Points {
			if pt.AtNS < sp.StartNS || pt.AtNS > sp.EndNS {
				t.Errorf("point %s at %d outside its span %s rank %d [%d, %d]",
					pt.Point, pt.AtNS, sp.Op, sp.Rank, sp.StartNS, sp.EndNS)
			}
			if pt.Point == "" || pt.Point == "pmem.unnamed" {
				t.Errorf("point inside %s has no registered name", sp.Op)
			}
		}
		if sp.Op == "store_block" {
			storeRanks[sp.Rank] = true
			persists := 0
			for _, pt := range sp.Points {
				if pt.Kind == "persist" {
					persists++
				}
			}
			if persists == 0 {
				t.Errorf("store_block span on rank %d recorded no persist points", sp.Rank)
			}
		}
	}
	if !storeRanks[0] || !storeRanks[1] {
		t.Errorf("store_block spans seen for ranks %v, want both 0 and 1", storeRanks)
	}
}
