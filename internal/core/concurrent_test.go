package core_test

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"pmemcpy/internal/bytesview"
	"pmemcpy/internal/core"
	"pmemcpy/internal/mpi"
	"pmemcpy/internal/node"
	"pmemcpy/internal/serial"
	"pmemcpy/internal/sim"
)

// TestConcurrentStoreLoadDeleteModel runs M ranks hammering K shared
// variables with mixed StoreDatum/LoadDatum/Delete traffic and checks every
// observation against an in-memory model. Each variable has a model mutex
// held across the PMEM operation and the model update, so the model is a
// linearization witness: any mismatch means the store lost, duplicated, or
// tore an update. Payloads straddle the parallel-store threshold with the
// identity codec, so the sharded copy engine, the striped allocator, and the
// metadata hashtable all run concurrently. Run under -race this is the
// concurrency gate for the whole stack.
func TestConcurrentStoreLoadDeleteModel(t *testing.T) {
	const (
		ranks   = 6
		nvars   = 4
		opsEach = 40
	)
	n := node.New(sim.DefaultConfig(), 256<<20)
	n.Machine.SetConcurrency(ranks)
	opts := &core.Options{Codec: "raw", Parallelism: 4}

	var (
		modelMu  [nvars]sync.Mutex
		modelVal [nvars][]byte // nil = absent
	)
	varName := func(v int) string { return fmt.Sprintf("shared/v%d", v) }

	_, err := mpi.Run(n.Machine, ranks, func(c *mpi.Comm) error {
		p, err := core.Mmap(c, n, "/stress.pool", core.OptionsArg(opts))
		if err != nil {
			return err
		}
		rng := rand.New(rand.NewSource(int64(c.Rank()*7919 + 13)))
		payload := func() []byte {
			// Mostly small, sometimes past the 256 KB parallel threshold.
			size := 64 + rng.Intn(4096)
			if rng.Intn(8) == 0 {
				size = (256 << 10) + rng.Intn(64<<10)
			}
			b := make([]byte, size)
			rng.Read(b)
			return b
		}
		for op := 0; op < opsEach; op++ {
			v := rng.Intn(nvars)
			id := varName(v)
			modelMu[v].Lock()
			switch rng.Intn(4) {
			case 0, 1: // store
				val := payload()
				err := p.StoreDatum(id, &serial.Datum{Type: serial.Bytes, Payload: val})
				if err == nil {
					modelVal[v] = val
				}
				modelMu[v].Unlock()
				if err != nil {
					return fmt.Errorf("rank %d store %s: %w", c.Rank(), id, err)
				}
			case 2: // load and compare against the model
				d, err := p.LoadDatum(id)
				want := modelVal[v]
				modelMu[v].Unlock()
				if want == nil {
					if err == nil {
						return fmt.Errorf("rank %d: load %s returned data for deleted variable", c.Rank(), id)
					}
				} else {
					if err != nil {
						return fmt.Errorf("rank %d load %s: %w", c.Rank(), id, err)
					}
					if !bytes.Equal(d.Payload, want) {
						return fmt.Errorf("rank %d: %s read %d bytes != model %d bytes",
							c.Rank(), id, len(d.Payload), len(want))
					}
				}
			default: // delete
				existed, err := p.Delete(id)
				if err == nil && existed != (modelVal[v] != nil) {
					err = fmt.Errorf("delete existed=%v but model says %v", existed, modelVal[v] != nil)
				}
				if err == nil {
					modelVal[v] = nil
				}
				modelMu[v].Unlock()
				if err != nil {
					return fmt.Errorf("rank %d delete %s: %w", c.Rank(), id, err)
				}
			}
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		// Final audit on rank 0: the store must match the model exactly.
		if c.Rank() == 0 {
			for v := 0; v < nvars; v++ {
				d, err := p.LoadDatum(varName(v))
				if modelVal[v] == nil {
					if err == nil {
						return fmt.Errorf("final: %s present but model says deleted", varName(v))
					}
					continue
				}
				if err != nil {
					return fmt.Errorf("final: load %s: %w", varName(v), err)
				}
				if !bytes.Equal(d.Payload, modelVal[v]) {
					return fmt.Errorf("final: %s mismatches model", varName(v))
				}
			}
			st, err := p.Stats()
			if err != nil {
				return err
			}
			if st.Parallelism != 4 {
				return fmt.Errorf("stats parallelism = %d, want 4", st.Parallelism)
			}
			t.Logf("stats: %+v", st)
		}
		return p.Munmap()
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentOverwriteVsParallelGather is the regression gate for the
// overwrite-vs-gather race: loadBlock must hold the id's read lock across
// planning AND execution, because an overwrite publishes its pruned block
// list and frees the blocks it dropped — a gather still copying out of a
// planned block after releasing the lock would read storage the allocator may
// already have handed to a concurrent store. Rank 0 stores full extents
// (generation g writes float64(g) everywhere), so the previous generation's
// block is freed on every iteration; reader ranks hammer parallel full-extent
// gathers under full verification. Every load must return one uniform
// generation — a mixed or garbage element is a torn gather. Run under -race
// (make integrity) this also fails at the first unsynchronized touch of freed
// storage.
func TestConcurrentOverwriteVsParallelGather(t *testing.T) {
	const (
		ranks = 4
		elems = 1 << 16 // 512 KB: above the parallel gather threshold
		gens  = 25
		loads = 40
	)
	n := node.New(sim.DefaultConfig(), 512<<20)
	n.Machine.SetConcurrency(ranks)
	opts := &core.Options{PoolSize: 256 << 20, ReadParallelism: 4, VerifyReads: core.VerifyFull}

	_, err := mpi.Run(n.Machine, ranks, func(c *mpi.Comm) error {
		p, err := core.Mmap(c, n, "/race.pool", core.OptionsArg(opts))
		if err != nil {
			return err
		}
		full := []uint64{0}
		cnt := []uint64{elems}
		if c.Rank() == 0 {
			if err := p.Alloc("grid", serial.Float64, cnt); err != nil {
				return err
			}
			if err := p.StoreBlock("grid", full, cnt, make([]byte, elems*8)); err != nil {
				return err
			}
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		if c.Rank() == 0 {
			vals := make([]float64, elems)
			for g := 1; g <= gens; g++ {
				for i := range vals {
					vals[i] = float64(g)
				}
				if err := p.StoreBlock("grid", full, cnt, bytesview.Bytes(vals)); err != nil {
					return err
				}
			}
		} else {
			dst := make([]byte, elems*8)
			for l := 0; l < loads; l++ {
				if err := p.LoadBlock("grid", full, cnt, dst); err != nil {
					return fmt.Errorf("rank %d load %d: %w", c.Rank(), l, err)
				}
				vals := bytesview.OfCopy[float64](dst)
				g := vals[0]
				if g != math.Trunc(g) || g < 0 || g > gens {
					return fmt.Errorf("rank %d load %d: generation %v out of range", c.Rank(), l, g)
				}
				for i, v := range vals {
					if v != g {
						return fmt.Errorf("rank %d load %d: torn gather: elem %d = %v, elem 0 = %v",
							c.Rank(), l, i, v, g)
					}
				}
			}
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		return p.Munmap()
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentOverwriteVsMinMax is the regression gate for the
// overwrite-vs-statistics race: BlockStatsOf used to look the block index up,
// drop every lock, and then slice and scan block bytes, so a concurrent
// overwrite could free — and a concurrent store reuse — the storage MinMax
// was scanning; with verification off that is a silently wrong range.
// Statistics are now a read plan like any load, holding the id's read lock
// from the index lookup through the last byte scanned. The raw codec carries
// no block characteristics, so every statistics miss streams whole blocks —
// and every overwrite scans the block it drops into the list's trailer. Rank 0
// overwrites the array with generation g (uniform values), which drops the
// previous generation, and re-stores a scratch variable of the same size
// (negative values) so the allocator hands the freed block straight back out;
// reader ranks hammer MinMax. Against the DRAM model — generation g is
// uniformly float64(g) over the zeros the array was created with, and MinMax
// is the running range of every block stored — every answer must be [0, g]
// for a generation g that was current at some point during the call: a
// negative minimum is a scan of reused storage. Run under -race (make
// integrity) the detector must stay silent too.
func TestConcurrentOverwriteVsMinMax(t *testing.T) {
	const (
		ranks = 4
		elems = 1 << 16 // 512 KB per generation: a scan long enough to overlap a free
		gens  = 40
	)
	n := node.New(sim.DefaultConfig(), 512<<20)
	n.Machine.SetConcurrency(ranks)
	opts := &core.Options{Codec: "raw", PoolSize: 256 << 20}
	// published is the newest generation whose store has returned; started
	// the newest whose store has begun. A MinMax must answer with a newest
	// generation in [published at call start, started at call end].
	var published, started atomic.Int64
	var done atomic.Bool
	var failures [ranks]error // per-rank verdicts; ranks still unmap collectively

	_, err := mpi.Run(n.Machine, ranks, func(c *mpi.Comm) error {
		p, err := core.Mmap(c, n, "/statsrace.pool", core.OptionsArg(opts))
		if err != nil {
			return err
		}
		full := []uint64{0}
		cnt := []uint64{elems}
		if c.Rank() == 0 {
			for _, id := range []string{"grid", "scratch"} {
				if err := p.Alloc(id, serial.Float64, cnt); err != nil {
					return err
				}
				if err := p.StoreBlock(id, full, cnt, make([]byte, elems*8)); err != nil {
					return err
				}
			}
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		var rerr error
		defer func() { failures[c.Rank()] = rerr }()
		if c.Rank() == 0 {
			vals := make([]float64, elems)
			for g := int64(1); g <= gens && rerr == nil; g++ {
				for _, id := range []string{"grid", "scratch"} {
					v := float64(g)
					if id == "scratch" {
						v = -v
					} else {
						started.Store(g)
					}
					for i := range vals {
						vals[i] = v
					}
					if rerr = p.StoreBlock(id, full, cnt, bytesview.Bytes(vals)); rerr != nil {
						break
					}
					if id == "grid" {
						published.Store(g)
					}
				}
			}
			done.Store(true)
		} else {
			for q := 0; !done.Load() && rerr == nil; q++ {
				lo := published.Load()
				mn, mx, err := p.MinMax("grid")
				hi := started.Load()
				switch {
				case err != nil:
					rerr = fmt.Errorf("rank %d query %d: %w", c.Rank(), q, err)
				case mn != 0 || mx != math.Trunc(mx) || int64(mx) < lo || int64(mx) > hi:
					rerr = fmt.Errorf("rank %d query %d: MinMax = [%v, %v], model says [0, g] for a g in [%d, %d]",
						c.Rank(), q, mn, mx, lo, hi)
				}
			}
		}
		return p.Munmap()
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, ferr := range failures {
		if ferr != nil {
			t.Error(ferr)
		}
	}
}
