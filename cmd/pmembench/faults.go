package main

import (
	"errors"
	"fmt"

	"pmemcpy/internal/bytesview"
	"pmemcpy/internal/core"
	"pmemcpy/internal/serial"
)

// runFaults is the -faults smoke mode: a compact crash-point exploration of
// the serial and sharded store paths — every persist point reached by the
// workloads is crash-tested (clean and torn, under the lose-all and random
// adversaries) and every recovered pool must pass the structural checker,
// the core metadata invariants, and data verification. Exit 0 means full
// coverage with zero failures; the coverage maps are printed either way.
func runFaults() int {
	fill := func(elems int, v float64) []byte {
		vals := make([]float64, elems)
		for i := range vals {
			vals[i] = v
		}
		return bytesview.Bytes(vals)
	}
	uniform := func(p *core.PMEM, id string, elems int) (float64, error) {
		dst := make([]byte, elems*8)
		if err := p.LoadBlock(id, []uint64{0}, []uint64{uint64(elems)}, dst); err != nil {
			return 0, err
		}
		vals := bytesview.OfCopy[float64](dst)
		for i, v := range vals {
			if v != vals[0] {
				return 0, fmt.Errorf("%s torn: [0]=%g but [%d]=%g", id, vals[0], i, v)
			}
		}
		return vals[0], nil
	}
	oldOrNew := func(id string, elems int) func(*core.PMEM) error {
		return func(p *core.PMEM) error {
			v, err := uniform(p, id, elems)
			if err != nil {
				return err
			}
			if v != 1 && v != 2 {
				return fmt.Errorf("%s = all %g, want 1 or 2", id, v)
			}
			return nil
		}
	}

	scripts := []core.Script{
		{
			Name:    "serial",
			DevSize: 8 << 20,
			Setup: func(p *core.PMEM) error {
				if err := p.Alloc("A", serial.Float64, []uint64{64}); err != nil {
					return err
				}
				if err := p.StoreBlock("A", []uint64{0}, []uint64{64}, fill(64, 1)); err != nil {
					return err
				}
				return p.Alloc("G", serial.Float64, []uint64{8})
			},
			Run: func(p *core.PMEM) error {
				if err := p.StoreBlock("A", []uint64{0}, []uint64{64}, fill(64, 2)); err != nil {
					return err
				}
				if err := p.StoreBlock("G", []uint64{0}, []uint64{8}, fill(8, 7)); err != nil {
					return err
				}
				_, err := p.Delete("G")
				return err
			},
			Verify: func(p *core.PMEM) error {
				if err := oldOrNew("A", 64)(p); err != nil {
					return err
				}
				if v, err := uniform(p, "G", 8); err == nil {
					if v != 7 {
						return fmt.Errorf("G = all %g, want 7", v)
					}
				} else if !errors.Is(err, core.ErrNotFound) {
					return err
				}
				return nil
			},
		},
		{
			Name:    "parallel",
			DevSize: 32 << 20,
			Options: &core.Options{Parallelism: 4},
			Setup: func(p *core.PMEM) error {
				if err := p.Alloc("A", serial.Float64, []uint64{32768}); err != nil {
					return err
				}
				return p.StoreBlock("A", []uint64{0}, []uint64{32768}, fill(32768, 1))
			},
			Run: func(p *core.PMEM) error {
				return p.StoreBlock("A", []uint64{0}, []uint64{32768}, fill(32768, 2))
			},
			Verify: oldOrNew("A", 32768),
		},
	}

	exit := 0
	for _, s := range scripts {
		rep, err := core.Explore(s, core.ExploreOptions{Tear: true})
		if err != nil {
			fmt.Printf("faults: %s: %v\n", s.Name, err)
			return 1
		}
		fmt.Print(rep.Format())
		if len(rep.Failures) > 0 || len(rep.Unexplored()) > 0 {
			exit = 1
		}
	}
	if exit == 0 {
		fmt.Println("faults: every reached persist point crash-tested, all recoveries verified")
	}
	return exit
}
