package harness

import (
	"testing"

	"pmemcpy/internal/core"
)

// TestParallelReadSpeedup pins the acceptance bar for the gather engine: with
// 8 workers per rank the read phase of the scaled 40 GB workload must be at
// least 1.5x faster than the serial path. Writes stay serial in both runs so
// only the read column moves. Verify is on (smallParams), so the speedup is
// measured over byte-exact reads.
func TestParallelReadSpeedup(t *testing.T) {
	base := smallParams(1)
	base.Vars = 2 // two large slabs per rank, each far above the engine's floor

	serial, err := Run(core.Library{}, base)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Run(core.Library{ReadParallelism: 8}, base)
	if err != nil {
		t.Fatal(err)
	}
	sp := Speedup(serial, parallel, "read")
	t.Logf("read: serial=%v parallel(8)=%v speedup=%.2fx", serial.Read, parallel.Read, sp)
	if sp < 1.5 {
		t.Errorf("read parallelism 8 speedup %.2fx, want >= 1.5x", sp)
	}
	// The write engine is untouched: the two write columns must agree.
	if serial.Write != parallel.Write {
		t.Errorf("write time moved with ReadParallelism: serial=%v parallel=%v",
			serial.Write, parallel.Write)
	}
}

// TestReadParallelismSweepMonotone mirrors the write-side sweep: read time
// should improve (or plateau at the device limit) as gather workers increase.
func TestReadParallelismSweepMonotone(t *testing.T) {
	prev := int64(0)
	for _, rpar := range []int{1, 2, 4, 8} {
		p := smallParams(1)
		p.Vars = 2
		res, err := Run(core.Library{ReadParallelism: rpar}, p)
		if err != nil {
			t.Fatalf("rpar=%d: %v", rpar, err)
		}
		t.Logf("rpar=%d read=%v", rpar, res.Read)
		if prev != 0 && int64(res.Read) > prev+prev/20 {
			t.Errorf("rpar=%d read %v regressed vs previous %v", rpar, res.Read, prev)
		}
		prev = int64(res.Read)
	}
}
