package main

import (
	"errors"
	"fmt"
	"io"
	"strings"

	"pmemcpy/internal/bytesview"
	"pmemcpy/internal/core"
	"pmemcpy/internal/pmem"
	"pmemcpy/internal/serial"
)

// exploreOptions are the variants every reached persist point is crashed
// under: each cache-loss adversary, keep-all included (Explore's default
// leaves it out), plus a torn in-flight store.
var exploreOptions = core.ExploreOptions{
	Modes: []pmem.CrashMode{pmem.CrashLoseAll, pmem.CrashKeepAll, pmem.CrashRandom},
	Tear:  true,
}

// explore is the default mode: crash-point exploration (core.Explore) of
// each script. Every recovered pool must pass the structural checker, the
// core metadata invariants, a CRC deep check and the script's own
// old-or-new verification. Exit 0 means every reached persist point was
// crash-tested with zero failures; the coverage maps are printed either way.
func explore(w io.Writer, scripts []core.Script) int {
	variants := make([]string, 0, len(exploreOptions.Modes)+1)
	for _, m := range exploreOptions.Modes {
		variants = append(variants, m.String())
	}
	if exploreOptions.Tear {
		variants = append(variants, "torn")
	}
	fmt.Fprintf(w, "variants: %s\n", strings.Join(variants, ", "))

	exit := 0
	for _, s := range scripts {
		rep, err := core.Explore(s, exploreOptions)
		if err != nil {
			fmt.Fprintf(w, "pmemfsck: %s: %v\n", s.Name, err)
			return 1
		}
		fmt.Fprint(w, rep.Format())
		if len(rep.Failures) > 0 || len(rep.Unexplored()) > 0 {
			exit = 1
		}
	}
	if exit == 0 {
		fmt.Fprintln(w, "OK: every reached persist point crash-tested, all recoveries verified")
	} else {
		fmt.Fprintln(w, "FAIL: a recovery failed verification or a reached persist point went unexplored")
	}
	return exit
}

// fill returns elems float64s of value v as bytes.
func fill(elems int, v float64) []byte {
	vals := make([]float64, elems)
	for i := range vals {
		vals[i] = v
	}
	return bytesview.Bytes(vals)
}

// uniform loads array id of elems float64s and returns its one value, or an
// error when the elements differ: a torn store.
func uniform(p *core.PMEM, id string, elems int) (float64, error) {
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

// oldOrNew accepts array id holding all 1s (the old store) or all 2s (the
// new one).
func oldOrNew(id string, elems int) func(*core.PMEM) error {
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

// crashScripts are the default mode's workloads: a serial overwrite, a fresh
// store and a delete on one handle, and a sharded overwrite over 4 copy
// workers.
func crashScripts() []core.Script {
	return []core.Script{
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
}
