package core

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pmemcpy/internal/mpi"
	"pmemcpy/internal/node"
	"pmemcpy/internal/serial"
	"pmemcpy/internal/sim"
)

// TestChargeMoveTable pins chargeMove — the one cost charge under both
// engines — against testdata/charge_table.golden: the virtual-clock deltas of
// the six per-direction, per-width charge functions it replaced
// (chargeDirectWrite/Read, chargeParallelStore, chargeStripedStore/Read),
// captured from them over {store, load} x {1, 4 pools} x {1, 4 workers} x
// {MapSync off, on} x {the raw and bp4 cost profiles}. The one-pool, one-worker
// rows are the serial functions' own figures, so a serial store or load is
// charged what it always was, bit for bit. The golden is a record of deleted
// code: a modelling change that means to move these figures edits it by hand.
func TestChargeMoveTable(t *testing.T) {
	stripes := map[int][]int64{1: {1<<20 + 13}, 4: {6 << 20, 1<<20 + 7, 512 << 10, 256 << 10}}
	var got strings.Builder
	for _, pools := range []int{1, 4} {
		for _, mapsync := range []bool{false, true} {
			n := node.New(sim.DefaultConfig(), 64<<20, node.WithPMEMPools(pools))
			n.Machine.SetConcurrency(1)
			_, err := mpi.Run(n.Machine, 1, func(c *mpi.Comm) error {
				p, err := Mmap(c, n, "/charge.pool", optionsOption(Options{Pools: pools, MapSync: mapsync}))
				if err != nil {
					return err
				}
				// One entry per job, two jobs per pool: the tally is chargeMove's.
				var moved []poolBytes
				for pi, b := range stripes[pools] {
					moved = append(moved, poolBytes{pi, b / 2}, poolBytes{pi, b - b/2})
				}
				clk := c.Clock()
				for _, dir := range []sim.Dir{sim.Store, sim.Load} {
					for _, workers := range []int{1, 4} {
						for _, codec := range []string{"raw", "bp4"} {
							cd, err := serial.Get(codec)
							if err != nil {
								return err
							}
							name := "store"
							passes, dec := cd.CostProfile()
							if dir == sim.Load {
								name, passes = "load", dec
							}
							t0 := clk.Now()
							p.chargeMove(dir, moved, passes, workers)
							fmt.Fprintf(&got, "%s pools=%d workers=%d mapsync=%v codec=%s %d\n",
								name, pools, workers, mapsync, codec, int64(clk.Now()-t0))
						}
					}
				}
				return p.Munmap()
			})
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	want, err := os.ReadFile(filepath.Join("testdata", "charge_table.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Errorf("chargeMove drifted from the figures of the functions it replaced:\ngot:\n%swant:\n%s", got.String(), want)
	}
}
