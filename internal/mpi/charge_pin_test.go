package mpi

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pmemcpy/internal/sim"
)

var update = flag.Bool("update", false, "rewrite testdata goldens with the observed values")

// TestCollectiveNanosPinned holds the virtual time every collective charges to
// the exact nanosecond against testdata/collective_ns.golden: each one runs
// once on a fresh 4-rank world (zeroed clocks, the interconnect shared four
// ways) with rank-dependent payloads, and every rank's final clock is
// recorded. The figure pipeline's bit-exact rows are one-rank, so this is what
// pins the transfer, latency and log-tree terms at a world size above one.
func TestCollectiveNanosPinned(t *testing.T) {
	payload := func(c *Comm) []byte { return bytes.Repeat([]byte{byte(c.Rank())}, 1000*(c.Rank()+1)) }
	parts := func(c *Comm) [][]byte {
		out := make([][]byte, c.Size())
		for dst := range out {
			out[dst] = make([]byte, 500*(c.Rank()+1)+100*dst)
		}
		return out
	}
	collectives := []struct {
		name string
		fn   func(c *Comm) error
	}{
		{"barrier", func(c *Comm) error { return c.Barrier() }},
		{"bcast", func(c *Comm) error { _, err := c.Bcast(1, payload(c)); return err }},
		{"gather", func(c *Comm) error { _, err := c.Gather(2, payload(c)); return err }},
		{"allgather", func(c *Comm) error { _, err := c.AllgatherVol(payload(c), -1); return err }},
		{"allgather-vol", func(c *Comm) error { _, err := c.AllgatherVol(payload(c), 1<<20); return err }},
		{"allgather-u64", func(c *Comm) error { _, err := c.AllgatherU64(uint64(c.Rank())); return err }},
		{"alltoall", func(c *Comm) error { _, err := c.AlltoallVol(parts(c), -1); return err }},
		{"alltoall-vol", func(c *Comm) error { _, err := c.AlltoallVol(parts(c), 1<<20); return err }},
		{"share-local", func(c *Comm) error { _, err := c.ShareLocal(0, c); return err }},
		{"allreduce-u64", func(c *Comm) error { _, err := c.AllreduceU64(uint64(c.Rank()), OpMax); return err }},
		{"exscan-u64", func(c *Comm) error { _, err := c.ExscanU64(uint64(c.Rank())); return err }},
	}
	var got strings.Builder
	for _, col := range collectives {
		m := sim.NewMachine(sim.DefaultConfig())
		m.SetConcurrency(4)
		times, err := Run(m, 4, col.fn)
		if err != nil {
			t.Fatalf("%s: %v", col.name, err)
		}
		fmt.Fprintf(&got, "%s", col.name)
		for _, d := range times {
			fmt.Fprintf(&got, " %d", int64(d))
		}
		got.WriteByte('\n')
	}

	goldenPath := filepath.Join("testdata", "collective_ns.golden")
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
		t.Errorf("collective charges drifted from %s\ngot:\n%s", goldenPath, got.String())
	}
}
