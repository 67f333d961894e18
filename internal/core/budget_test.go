package core_test

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pmemcpy/internal/bytesview"
	"pmemcpy/internal/core"
	"pmemcpy/internal/mpi"
	"pmemcpy/internal/node"
	"pmemcpy/internal/serial"
	"pmemcpy/internal/sim"
)

// TestPersistBudgetPinned holds the device-access cost of each protocol step —
// persists, fences and charged read accesses, from the devices' always-on
// counters — against testdata/persist_budget.golden, on a one-pool and a
// four-pool namespace: a dims record (Alloc), a scalar insert and overwrite, a
// string, the loads of both, a 4 MB block store and its load with the
// block-index cache cold and warm, an append to a list already holding 8
// blocks, a delete, one 32-submission async batch under the raw codec, and a
// delete of the 9-block array. It
// is the table DESIGN §15 cites: a change that means to spend fewer barriers or
// fewer read latencies (ROADMAP item 2) regenerates it with -update and
// explains each row that moved; any other change must not move it.
func TestPersistBudgetPinned(t *testing.T) {
	var got strings.Builder
	for _, pools := range []int{1, 4} {
		n := node.New(sim.DefaultConfig(), 128<<20, node.WithPMEMPools(pools))
		n.Machine.SetConcurrency(1)
		var last [3]int64
		step := func(name string, err error) error {
			var now [3]int64
			for i := 0; i < n.Pools(); i++ {
				c := n.DeviceAt(i).Counters()
				now[0] += c.Persists
				now[1] += c.Fences
				now[2] += c.Reads
			}
			if name != "" {
				fmt.Fprintf(&got, "%s pools=%d persists=%d fences=%d reads=%d\n", name, pools,
					now[0]-last[0], now[1]-last[1], now[2]-last[2])
			}
			last = now
			return err
		}
		scalar := &serial.Datum{Type: serial.Int64, Payload: bytesview.Bytes([]int64{42})}
		block := make([]byte, 4<<20)
		sync := func(p *core.PMEM) error {
			step("", nil)
			if err := step("alloc", p.Alloc("field", serial.Float64, []uint64{16 << 19})); err != nil {
				return err
			}
			if err := step("scalar-insert", p.StoreDatum("step", scalar)); err != nil {
				return err
			}
			if err := step("scalar-overwrite", p.StoreDatum("step", scalar)); err != nil {
				return err
			}
			if err := step("string", p.StoreString("name", "pMEMCPY")); err != nil {
				return err
			}
			_, err := p.LoadDatum("step")
			if err := step("scalar-load", err); err != nil {
				return err
			}
			_, err = p.LoadString("name")
			if err := step("string-load", err); err != nil {
				return err
			}
			if err := step("block-4MB", p.StoreBlock("field", []uint64{0}, []uint64{1 << 19}, block)); err != nil {
				return err
			}
			// The store invalidated the id's cached block index: the first load
			// decodes the list from PMEM, the second finds it in DRAM.
			for _, name := range []string{"block-load-cold", "block-load-cached"} {
				if err := step(name, p.LoadBlock("field", []uint64{0}, []uint64{1 << 19}, block)); err != nil {
					return err
				}
			}
			for i := uint64(1); i < 8; i++ {
				if err := p.StoreBlock("field", []uint64{i << 10}, []uint64{1 << 10}, block[:8<<10]); err != nil {
					return err
				}
			}
			step("", nil)
			if err := step("append-to-8-blocks", p.StoreBlock("field", []uint64{8 << 10}, []uint64{1 << 10}, block[:8<<10])); err != nil {
				return err
			}
			_, err = p.Delete("step")
			return step("delete", err)
		}
		async := func(p *core.PMEM) error {
			if err := p.Alloc("stream", serial.Uint8, []uint64{32 << 13}); err != nil {
				return err
			}
			step("", nil)
			for i := uint64(0); i < 32; i++ {
				p.StoreBlockAsync("stream", []uint64{i << 13}, []uint64{1 << 13}, block[:1<<13])
			}
			return step("async-batch-32", p.Flush(context.Background()))
		}
		// The array goes last, after the batch has allocated over what the
		// sync steps left.
		deleteArray := func(p *core.PMEM) error {
			step("", nil)
			_, err := p.Delete("field")
			return step("delete-array", err)
		}
		for _, run := range []struct {
			fn   func(*core.PMEM) error
			opts []core.MmapOption
		}{
			{sync, []core.MmapOption{core.WithPools(pools)}},
			{async, []core.MmapOption{core.WithPools(pools), core.WithAsync(), core.WithCodec("raw")}},
			{deleteArray, []core.MmapOption{core.WithPools(pools)}},
		} {
			_, err := mpi.Run(n.Machine, 1, func(c *mpi.Comm) error {
				p, err := core.Mmap(c, n, "/budget.pool", run.opts...)
				if err != nil {
					return err
				}
				if err := run.fn(p); err != nil {
					return err
				}
				return p.Munmap()
			})
			if err != nil {
				t.Fatal(err)
			}
		}
	}

	goldenPath := filepath.Join("testdata", "persist_budget.golden")
	if *updateGolden {
		if err := os.WriteFile(goldenPath, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("reading golden (regenerate with -update): %v", err)
	}
	if got.String() != string(want) {
		t.Errorf("persist budget drifted from %s\ngot:\n%s", goldenPath, got.String())
	}
}
