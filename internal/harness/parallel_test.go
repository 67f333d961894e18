package harness

import (
	"testing"

	"pmemcpy/internal/core"
)

// TestParallelWriteSpeedup pins the acceptance bar for the sharded copy
// engine: with 8 workers per rank a large-slab write phase must be at least
// 1.5x faster than the serial path. Virtual time makes the ratio exact and
// host-independent.
func TestParallelWriteSpeedup(t *testing.T) {
	base := smallParams(1)
	base.Vars = 2 // two large slabs per rank, each far above parallelMinBytes

	serial, err := Run(core.Library{}, base)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Run(core.Library{Parallelism: 8}, base)
	if err != nil {
		t.Fatal(err)
	}
	sp := Speedup(serial, parallel, "write")
	t.Logf("write: serial=%v parallel(8)=%v speedup=%.2fx", serial.Write, parallel.Write, sp)
	if sp < 1.5 {
		t.Errorf("parallelism 8 write speedup %.2fx, want >= 1.5x", sp)
	}
	// Reads are unaffected by the write-side engine and must stay correct
	// (Verify is on in smallParams): shard blocks reassemble transparently.
	if parallel.Read <= 0 {
		t.Errorf("degenerate read time %v", parallel.Read)
	}
}

// TestParallelismSweepMonotone reproduces the paper's procs sweep as a
// goroutine sweep: write throughput should improve (or at worst plateau at
// the device limit) as workers increase.
func TestParallelismSweepMonotone(t *testing.T) {
	prev := int64(0)
	for _, par := range []int{1, 2, 4, 8} {
		p := smallParams(1)
		p.Vars = 2
		res, err := Run(core.Library{Parallelism: par}, p)
		if err != nil {
			t.Fatalf("par=%d: %v", par, err)
		}
		t.Logf("par=%d write=%v", par, res.Write)
		if prev != 0 && int64(res.Write) > prev+prev/20 {
			t.Errorf("par=%d write %v regressed vs previous %v", par, res.Write, prev)
		}
		prev = int64(res.Write)
	}
}
