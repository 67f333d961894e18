package core_test

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"testing"

	"pmemcpy/internal/core"
	"pmemcpy/internal/mpi"
	"pmemcpy/internal/node"
	"pmemcpy/internal/serial"
	"pmemcpy/internal/sim"
)

// reserveRig runs each fn on its own mapping of one pool file on a fresh
// node — the second and later ones reopen what the first created — as rank 0.
func reserveRig(t *testing.T, pools int, opts []core.MmapOption, fns ...func(p *core.PMEM) error) {
	t.Helper()
	n := node.New(sim.DefaultConfig(), 16<<20, node.WithPMEMPools(pools))
	n.Machine.SetConcurrency(1)
	for _, fn := range fns {
		_, err := mpi.Run(n.Machine, 1, func(c *mpi.Comm) error {
			p, err := core.Mmap(c, n, "/reserve.pool", append([]core.MmapOption{core.WithPools(pools)}, opts...)...)
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
}

// TestFailedPublishGivesBlocksBack stores a block into an id that holds a
// whole value in a block of its own: the store fails at its publish — the
// record is a value ref, not a block list — after its block was reserved and
// filled. Synchronously and through an async group, the record change's abort
// gives that block back: the heap holds as many allocated blocks after the
// failed store as before it, and after a reopen, and the allocator's live
// bytes (allocated minus freed, counted at commit) do not move.
func TestFailedPublishGivesBlocksBack(t *testing.T) {
	for _, async := range []bool{false, true} {
		t.Run(fmt.Sprintf("async=%v", async), func(t *testing.T) {
			var opts []core.MmapOption
			if async {
				opts = append(opts, core.WithAsync())
			}
			var before int64
			counted := func(what string, p *core.PMEM) error {
				n, err := p.AllocatedBlocks()
				if err == nil && n != before {
					err = fmt.Errorf("%s: %d allocated blocks, %d before the failed store", what, n, before)
				}
				return err
			}
			reserveRig(t, 1, opts, func(p *core.PMEM) error {
				if err := p.Alloc("A", serial.Float64, []uint64{64}); err != nil {
					return err
				}
				whole := &serial.Datum{Type: serial.Float64, Dims: []uint64{64}, Payload: uniformF64(64, 1)}
				if err := p.StoreDatum("A", whole); err != nil {
					return err
				}
				var err error
				if before, err = p.AllocatedBlocks(); err != nil {
					return err
				}
				live := p.Metrics().Get("pmemcpy_alloc_live_bytes")
				if async {
					p.StoreBlockAsync("A", []uint64{0}, []uint64{8}, uniformF64(8, 2))
					err = p.Flush(context.Background())
				} else {
					err = p.StoreBlock("A", []uint64{0}, []uint64{8}, uniformF64(8, 2))
				}
				if err == nil || !strings.Contains(err.Error(), "not a block list") {
					return fmt.Errorf("block store over a whole value = %v, want the record-kind error", err)
				}
				if vs := p.VerifyStore(); len(vs) > 0 {
					return fmt.Errorf("after the failed store: %v", vs)
				}
				if got := p.Metrics().Get("pmemcpy_alloc_live_bytes"); got != live {
					return fmt.Errorf("live bytes %d after the failed store, %d before it", got, live)
				}
				return counted("after the failed store", p)
			}, func(p *core.PMEM) error {
				return counted("after a reopen", p)
			})
		})
	}
}

// TestOneTransactionPerStore counts pool transactions through the PoolStats
// delta: a block store, a whole value in a block of its own, and each group of
// an async batch are one transaction on a single pool — the record change that
// claims their blocks; a store striped over four pools adds one per member
// pool other than the id's home that its stripes touch, the transaction that
// claims them before the publish.
func TestOneTransactionPerStore(t *testing.T) {
	txs := func(p *core.PMEM) (n int64) {
		for _, s := range p.PoolStats() {
			n += s.Transactions
		}
		return n
	}
	one := func(what string, p *core.PMEM, want int64, store func() error) error {
		t0 := txs(p)
		if err := store(); err != nil {
			return fmt.Errorf("%s: %w", what, err)
		}
		if got := txs(p) - t0; got != want {
			return fmt.Errorf("%s ran %d pool transactions, want %d", what, got, want)
		}
		return nil
	}
	reserveRig(t, 1, nil, func(p *core.PMEM) error {
		if err := p.Alloc("A", serial.Float64, []uint64{1 << 10}); err != nil {
			return err
		}
		for i := range uint64(3) {
			if err := one("StoreBlock", p, 1, func() error {
				return p.StoreBlock("A", []uint64{i << 8}, []uint64{1 << 8}, uniformF64(1<<8, 1))
			}); err != nil {
				return err
			}
		}
		return one("StoreDatum", p, 1, func() error { return p.StoreDatum("s", blobDatum(1)) })
	})
	reserveRig(t, 1, []core.MmapOption{core.WithAsync(), core.WithCodec("raw")}, func(p *core.PMEM) error {
		if err := p.Alloc("stream", serial.Uint8, []uint64{32 << 13}); err != nil {
			return err
		}
		block := make([]byte, 1<<13)
		t0, g0 := txs(p), p.Metrics().Get("pmemcpy_async_publishes_total")
		for i := range uint64(32) {
			p.StoreBlockAsync("stream", []uint64{i << 13}, []uint64{1 << 13}, block)
		}
		if err := p.Flush(context.Background()); err != nil {
			return err
		}
		groups := p.Metrics().Get("pmemcpy_async_publishes_total") - g0
		if got := txs(p) - t0; groups == 0 || got != groups {
			return fmt.Errorf("an async batch of %d groups ran %d pool transactions", groups, got)
		}
		return nil
	})
	reserveRig(t, 4, []core.MmapOption{core.WithParallelism(4)}, func(p *core.PMEM) error {
		const rows = 512
		if err := p.Alloc("big", serial.Float64, []uint64{rows, 1024}); err != nil {
			return err
		}
		t0 := txs(p)
		if err := p.StoreBlock("big", []uint64{0, 0}, []uint64{rows, 1024}, make([]byte, rows*1024*8)); err != nil {
			return err
		}
		named, err := p.NamedBlocks("big")
		if err != nil {
			return err
		}
		var foreign []int64
		for _, b := range named {
			if int(b[0]) != p.HomePool("big") && !slices.Contains(foreign, b[0]) {
				foreign = append(foreign, b[0])
			}
		}
		if len(foreign) == 0 {
			return fmt.Errorf("the store did not stripe: it names %v", named)
		}
		if got, want := txs(p)-t0, int64(1+len(foreign)); got != want {
			return fmt.Errorf("a store striped over %d other pools ran %d pool transactions, want %d", len(foreign), got, want)
		}
		return nil
	})
}

// leakScript crashes store at every persist point over what setup left, and
// holds the recovered heap to the uncrashed run: it has as many allocated
// blocks as before the store when id's record is the old one, and as many as
// after it when the record is the new one — a crash anywhere leaks nothing.
func leakScript(name string, opts *core.Options, id string, setup, store func(p *core.PMEM) error) core.Script {
	var before, after int64
	var old, fresh [][2]int64
	census := func(p *core.PMEM) (int64, [][2]int64, error) {
		n, err := p.AllocatedBlocks()
		if err != nil {
			return 0, nil, err
		}
		named, err := p.NamedBlocks(id)
		return n, named, err
	}
	return core.Script{
		Name:    name,
		DevSize: 8 << 20,
		Options: opts,
		Setup: func(p *core.PMEM) (err error) {
			if err = setup(p); err == nil {
				before, old, err = census(p)
			}
			return err
		},
		Run: func(p *core.PMEM) (err error) {
			if err = store(p); err == nil {
				after, fresh, err = census(p)
			}
			return err
		},
		Verify: func(p *core.PMEM) error {
			n, named, err := census(p)
			switch {
			case err != nil:
				return err
			case slices.Equal(named, old) && n != before:
				return fmt.Errorf("%s holds its old record over %d allocated blocks, %d before the store", id, n, before)
			case slices.Equal(named, fresh) && n != after:
				return fmt.Errorf("%s holds its new record over %d allocated blocks, %d after the store", id, n, after)
			case !slices.Equal(named, old) && !slices.Equal(named, fresh):
				return fmt.Errorf("%s names %v: neither its old blocks %v nor its new %v", id, named, old, fresh)
			}
			return nil
		},
	}
}

// TestExploreStoreLeaksNothing crashes a single-pool block store over a list
// of two blocks, and an async batch of 32 submissions, at every persist point:
// a block is reserved with nothing logged and claimed by the record change
// that publishes it, so no crash leaves an allocated block no record names.
func TestExploreStoreLeaksNothing(t *testing.T) {
	block := leakScript("store-block", nil, "A",
		func(p *core.PMEM) error {
			if err := p.Alloc("A", serial.Float64, []uint64{64}); err != nil {
				return err
			}
			for _, off := range []uint64{0, 32} {
				if err := p.StoreBlock("A", []uint64{off}, []uint64{32}, uniformF64(32, 1)); err != nil {
					return err
				}
			}
			return nil
		},
		func(p *core.PMEM) error {
			return p.StoreBlock("A", []uint64{16}, []uint64{32}, uniformF64(32, 2))
		})
	async := leakScript("async-batch-32", &core.Options{Async: true, CoalesceWindow: 32, Codec: "raw"}, "stream",
		func(p *core.PMEM) error { return p.Alloc("stream", serial.Uint8, []uint64{32 << 10}) },
		func(p *core.PMEM) error {
			src := make([]byte, 1<<10)
			for i := range uint64(32) {
				p.StoreBlockAsync("stream", []uint64{i << 10}, []uint64{1 << 10}, src)
			}
			return p.Flush(context.Background())
		})
	for _, s := range []core.Script{block, async} {
		t.Run(s.Name, func(t *testing.T) { runExplore(t, s, core.ExploreOptions{Modes: exploreModes()}) })
	}
}

// TestFailedStripedStoreGivesBlocksBack fails each persist of a store striped
// over four pools in turn with an uncorrectable media error, until one goes
// through. Whichever step fails — a split, a payload, the claim of the stripes
// in another pool, the record change — the store publishes nothing, the heap
// holds as many allocated blocks as before it, and the same store then goes
// through.
func TestFailedStripedStoreGivesBlocksBack(t *testing.T) {
	const rows = 256
	data := uniformF64(rows*1024, 3)
	for k := int64(0); ; k++ {
		var storeErr error
		n := node.New(sim.DefaultConfig(), 16<<20, node.WithPMEMPools(4))
		n.Machine.SetConcurrency(1)
		_, err := mpi.Run(n.Machine, 1, func(c *mpi.Comm) error {
			p, err := core.Mmap(c, n, "/striped.pool", core.WithPools(4), core.WithParallelism(4))
			if err != nil {
				return err
			}
			if err := p.Alloc("big", serial.Float64, []uint64{rows, 1024}); err != nil {
				return err
			}
			before, err := p.AllocatedBlocks()
			if err != nil {
				return err
			}
			n.Device.InjectTransient(k, 5)
			storeErr = p.StoreBlock("big", []uint64{0, 0}, []uint64{rows, 1024}, data)
			n.Device.DisarmInjection()
			if storeErr == nil {
				return p.Munmap()
			}
			if named, err := p.NamedBlocks("big"); err != nil || len(named) != 0 {
				return fmt.Errorf("the failed store (%v) left big naming %v (%v)", storeErr, named, err)
			}
			if got, err := p.AllocatedBlocks(); err != nil || got != before {
				return fmt.Errorf("the failed store (%v) left %d allocated blocks (%v), %d before it", storeErr, got, err, before)
			}
			if err := p.StoreBlock("big", []uint64{0, 0}, []uint64{rows, 1024}, data); err != nil {
				return fmt.Errorf("the store after the failed one: %w", err)
			}
			return p.Munmap()
		})
		if err != nil {
			t.Fatalf("persist %d: %v", k, err)
		}
		if storeErr == nil {
			if k < 8 {
				t.Fatalf("the striped store finished in %d persists", k)
			}
			return
		}
	}
}
