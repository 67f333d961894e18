package core_test

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"pmemcpy/internal/bytesview"
	"pmemcpy/internal/core"
	"pmemcpy/internal/mpi"
	"pmemcpy/internal/node"
	"pmemcpy/internal/serial"
	"pmemcpy/internal/sim"
)

// storePattern fills array id (1-D, elems float64) from nblocks contiguous
// stores and returns the expected contents.
func storePattern(p *core.PMEM, id string, elems, nblocks uint64) ([]float64, error) {
	if err := p.Alloc(id, serial.Float64, []uint64{elems}); err != nil {
		return nil, err
	}
	want := make([]float64, elems)
	for i := range want {
		want[i] = float64(i)*0.5 + 1
	}
	per := elems / nblocks
	for b := uint64(0); b < nblocks; b++ {
		off, cnt := b*per, per
		if b == nblocks-1 {
			cnt = elems - off
		}
		err := p.StoreBlock(id, []uint64{off}, []uint64{cnt}, bytesview.Bytes(want[off:off+cnt]))
		if err != nil {
			return nil, err
		}
	}
	return want, nil
}

// TestLoadBlockParallelMatchesSerial reads the same stored data through the
// serial and the parallel gather path and requires byte-identical results,
// for whole-array reads, odd-offset subselections, and reads spanning block
// boundaries.
func TestLoadBlockParallelMatchesSerial(t *testing.T) {
	const elems = 1 << 16 // 512 KB of float64, past the engine's 256 KB floor
	n := node.New(sim.DefaultConfig(), 64<<20)
	n.Machine.SetConcurrency(1)

	var want []float64
	run := func(opts *core.Options, fn func(p *core.PMEM) error) {
		t.Helper()
		_, err := mpi.Run(n.Machine, 1, func(c *mpi.Comm) error {
			p, err := core.Mmap(c, n, "/rp.pool", core.OptionsArg(opts))
			if err != nil {
				return err
			}
			if err := fn(p); err != nil {
				return err
			}
			return p.Munmap()
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	run(nil, func(p *core.PMEM) error {
		var err error
		want, err = storePattern(p, "A", elems, 4)
		return err
	})

	sels := [][2]uint64{
		{0, elems},             // whole array, 4-block gather
		{1, elems - 2},         // odd offset, interior
		{elems / 4, elems / 2}, // spans two block boundaries
		{7, 3},                 // tiny read, below the parallel floor
	}
	for _, rpar := range []int{1, 8} {
		opts := &core.Options{ReadParallelism: rpar}
		run(opts, func(p *core.PMEM) error {
			for _, sel := range sels {
				off, cnt := sel[0], sel[1]
				dst := make([]float64, cnt)
				if err := p.LoadBlock("A", []uint64{off}, []uint64{cnt}, bytesview.Bytes(dst)); err != nil {
					return fmt.Errorf("rpar=%d sel=%v: %w", rpar, sel, err)
				}
				for i, v := range dst {
					if v != want[off+uint64(i)] {
						return fmt.Errorf("rpar=%d sel=%v: dst[%d] = %v, want %v",
							rpar, sel, i, v, want[off+uint64(i)])
					}
				}
			}
			reads := parallelOps(p, "load_")
			if rpar > 1 && reads == 0 {
				return fmt.Errorf("rpar=%d: no reads took the parallel path", rpar)
			}
			if rpar == 1 && reads != 0 {
				return fmt.Errorf("rpar=1: %d reads took the parallel path", reads)
			}
			return nil
		})
	}
}

// TestLoadBlockOverlapFallsBackSerial stores overlapping blocks (publish
// order resolves the shadowing) and checks that a wide read over them is
// correct and does NOT take the parallel path — overlapping copy jobs must
// execute in publish order.
func TestLoadBlockOverlapFallsBackSerial(t *testing.T) {
	const elems = 1 << 16
	opts := &core.Options{ReadParallelism: 8}
	single(t, opts, func(p *core.PMEM) error {
		want, err := storePattern(p, "A", elems, 1)
		if err != nil {
			return err
		}
		// Overwrite the middle half with new values: the newer block shadows
		// the old one over [elems/4, 3*elems/4).
		lo, cnt := uint64(elems/4), uint64(elems/2)
		patch := make([]float64, cnt)
		for i := range patch {
			patch[i] = -float64(i)
			want[lo+uint64(i)] = patch[i]
		}
		if err := p.StoreBlock("A", []uint64{lo}, []uint64{cnt}, bytesview.Bytes(patch)); err != nil {
			return err
		}
		dst := make([]float64, elems)
		if err := p.LoadBlock("A", []uint64{0}, []uint64{elems}, bytesview.Bytes(dst)); err != nil {
			return err
		}
		for i, v := range dst {
			if v != want[i] {
				return fmt.Errorf("dst[%d] = %v, want %v", i, v, want[i])
			}
		}
		if reads := parallelOps(p, "load_"); reads != 0 {
			return fmt.Errorf("overlapping plan took the parallel path %d times", reads)
		}
		return nil
	})
}

// TestLoadBlockSentinels pins the error taxonomy of the read path.
func TestLoadBlockSentinels(t *testing.T) {
	single(t, &core.Options{ReadParallelism: 4}, func(p *core.PMEM) error {
		if err := p.Alloc("A", serial.Float64, []uint64{100}); err != nil {
			return err
		}
		dst := make([]byte, 101*8)

		// Selection past the declared extent.
		err := p.LoadBlock("A", []uint64{50}, []uint64{51}, dst)
		if !errors.Is(err, core.ErrOutOfBounds) {
			t.Errorf("past-extent LoadBlock: err = %v, want ErrOutOfBounds", err)
		}
		// Rank mismatch against the dims record.
		err = p.LoadBlock("A", []uint64{0, 0}, []uint64{1, 1}, dst)
		if !errors.Is(err, core.ErrOutOfBounds) {
			t.Errorf("rank-mismatch LoadBlock: err = %v, want ErrOutOfBounds", err)
		}
		// Short destination buffer.
		err = p.LoadBlock("A", []uint64{0}, []uint64{100}, dst[:8])
		if !errors.Is(err, core.ErrOutOfBounds) {
			t.Errorf("short-dst LoadBlock: err = %v, want ErrOutOfBounds", err)
		}
		// Unknown id.
		err = p.LoadBlock("ghost", []uint64{0}, []uint64{1}, dst)
		if !errors.Is(err, core.ErrNotFound) {
			t.Errorf("missing-id LoadBlock: err = %v, want ErrNotFound", err)
		}
		// Declared but never stored.
		err = p.LoadBlock("A", []uint64{0}, []uint64{100}, dst)
		if !errors.Is(err, core.ErrNotFound) {
			t.Errorf("no-blocks LoadBlock: err = %v, want ErrNotFound", err)
		}
		// A datum id is not a block array.
		if err := p.StoreDatum("s", &serial.Datum{Type: serial.String, Payload: []byte("x")}); err != nil {
			return err
		}
		if _, err := p.LoadDatum("missing"); !errors.Is(err, core.ErrNotFound) {
			t.Errorf("missing LoadDatum: err = %v, want ErrNotFound", err)
		}
		return nil
	})
}

// TestConcurrentLoadVsStore races full-extent constant-value StoreBlocks
// against parallel LoadBlocks on shared variables. Every store publishes one
// block shadowing the whole extent, so any read must observe a uniform value
// that some writer actually wrote — a mixed or unknown value means the gather
// planned against a torn or stale index. Run under -race this is the
// concurrency gate for the DRAM cache's invalidation protocol.
func TestConcurrentLoadVsStore(t *testing.T) {
	const (
		ranks   = 6
		nvars   = 3
		elems   = 1 << 15 // 256 KB per store, at the parallel threshold
		opsEach = 12
	)
	n := node.New(sim.DefaultConfig(), 512<<20)
	n.Machine.SetConcurrency(ranks)
	opts := &core.Options{Parallelism: 2, ReadParallelism: 4}

	var mu sync.Mutex
	written := make([]map[float64]bool, nvars)
	for i := range written {
		written[i] = map[float64]bool{0: true} // pre-filled baseline
	}

	_, err := mpi.Run(n.Machine, ranks, func(c *mpi.Comm) error {
		p, err := core.Mmap(c, n, "/race.pool", core.OptionsArg(opts))
		if err != nil {
			return err
		}
		defer p.Munmap()
		// Rank 0 declares and zero-fills every variable; all ranks sync.
		if c.Rank() == 0 {
			zero := make([]float64, elems)
			for v := 0; v < nvars; v++ {
				id := fmt.Sprintf("v%d", v)
				if err := p.Alloc(id, serial.Float64, []uint64{elems}); err != nil {
					return err
				}
				if err := p.StoreBlock(id, []uint64{0}, []uint64{elems}, bytesview.Bytes(zero)); err != nil {
					return err
				}
			}
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		buf := make([]float64, elems)
		dst := make([]float64, elems)
		for op := 0; op < opsEach; op++ {
			v := (c.Rank() + op) % nvars
			id := fmt.Sprintf("v%d", v)
			if (c.Rank()+op)%2 == 0 {
				val := float64(c.Rank()*1000 + op + 1)
				for i := range buf {
					buf[i] = val
				}
				mu.Lock()
				written[v][val] = true
				mu.Unlock()
				// The value set is recorded before the store publishes, so a
				// racing reader that observes val always finds it in the set.
				if err := p.StoreBlock(id, []uint64{0}, []uint64{elems}, bytesview.Bytes(buf)); err != nil {
					return err
				}
			} else {
				if err := p.LoadBlock(id, []uint64{0}, []uint64{elems}, bytesview.Bytes(dst)); err != nil {
					return err
				}
				got := dst[0]
				for i, x := range dst {
					if x != got {
						return fmt.Errorf("rank %d: %s not uniform: dst[0]=%v dst[%d]=%v",
							c.Rank(), id, got, i, x)
					}
				}
				mu.Lock()
				ok := written[v][got]
				mu.Unlock()
				if !ok {
					return fmt.Errorf("rank %d: %s holds %v, never written", c.Rank(), id, got)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
