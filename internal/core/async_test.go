package core_test

// Tests for the asynchronous submission pipeline: visibility and durability
// contract, coalescing, ordering semantics (same-id FIFO, cross-id freedom),
// backpressure, cancellation, fallbacks, and a -race queue stress. The crash
// states of the group commit are explored separately in async_crash_test.go,
// and async-vs-sync equivalence in async_differential_test.go.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"pmemcpy/internal/bytesview"
	"pmemcpy/internal/core"
	"pmemcpy/internal/mpi"
	"pmemcpy/internal/node"
	"pmemcpy/internal/serial"
	"pmemcpy/internal/sim"
)

// runAsync runs fn on a single-rank handle opened with the given options.
func runAsync(t *testing.T, fn func(p *core.PMEM) error, opts ...core.MmapOption) {
	t.Helper()
	n := node.New(sim.DefaultConfig(), 256<<20)
	_, err := mpi.Run(n.Machine, 1, func(c *mpi.Comm) error {
		p, err := core.Mmap(c, n, "/async.pool", opts...)
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

func seqBytes(n, seed int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(seed + i)
	}
	return b
}

// TestAsyncVisibilityContract pins the core contract: a pending submission is
// invisible, a completed Future's data is readable, and Flush completes
// everything queued. With the raw codec the adjacent fragments coalesce into
// one block and one publish.
func TestAsyncVisibilityContract(t *testing.T) {
	runAsync(t, func(p *core.PMEM) error {
		if !p.AsyncEnabled() {
			return fmt.Errorf("AsyncEnabled = false on a WithAsync handle")
		}
		if err := p.Alloc("A", serial.Uint8, []uint64{64}); err != nil {
			return err
		}
		const frag = 16
		futs := make([]*core.Future, 4)
		for i := range futs {
			futs[i] = p.StoreBlockAsync("A",
				[]uint64{uint64(i * frag)}, []uint64{frag}, seqBytes(frag, i*frag))
		}
		if got := p.AsyncPending(); got != 4 {
			return fmt.Errorf("AsyncPending = %d, want 4", got)
		}
		for i, f := range futs {
			if f.Done() {
				return fmt.Errorf("future %d done before any drain", i)
			}
		}
		if err := p.Flush(context.Background()); err != nil {
			return fmt.Errorf("Flush: %v", err)
		}
		if got := p.AsyncPending(); got != 0 {
			return fmt.Errorf("AsyncPending after Flush = %d, want 0", got)
		}
		for i, f := range futs {
			if !f.Done() {
				return fmt.Errorf("future %d not done after Flush", i)
			}
			if err := f.Wait(context.Background()); err != nil {
				return fmt.Errorf("future %d: %v", i, err)
			}
			if f.Bytes() != frag {
				return fmt.Errorf("future %d Bytes = %d, want %d", i, f.Bytes(), frag)
			}
		}
		dst := make([]byte, 64)
		if err := p.LoadBlock("A", []uint64{0}, []uint64{64}, dst); err != nil {
			return err
		}
		if !bytes.Equal(dst, seqBytes(64, 0)) {
			return fmt.Errorf("read-back mismatch after Flush")
		}
		snap := p.Metrics()
		if got := snap.Get("pmemcpy_async_submitted_total"); got != 4 {
			return fmt.Errorf("submitted_total = %d, want 4", got)
		}
		// The four adjacent raw fragments merge into one block: 3 coalesce
		// events and a single publish.
		if got := snap.Get("pmemcpy_async_coalesced_total"); got != 3 {
			return fmt.Errorf("coalesced_total = %d, want 3", got)
		}
		if got := snap.Get("pmemcpy_async_publishes_total"); got != 1 {
			return fmt.Errorf("publishes_total = %d, want 1", got)
		}
		return nil
	}, core.WithAsync(), core.WithCodec("raw"))
}

// TestAsyncSyncOpBarrier pins per-handle program order: a synchronous op on
// the handle observes every earlier async submission without an explicit
// Flush.
func TestAsyncSyncOpBarrier(t *testing.T) {
	runAsync(t, func(p *core.PMEM) error {
		if err := p.Alloc("A", serial.Uint8, []uint64{32}); err != nil {
			return err
		}
		fut := p.StoreBlockAsync("A", []uint64{0}, []uint64{32}, seqBytes(32, 7))
		dst := make([]byte, 32)
		if err := p.LoadBlock("A", []uint64{0}, []uint64{32}, dst); err != nil {
			return fmt.Errorf("sync LoadBlock after async store: %v", err)
		}
		if !fut.Done() {
			return fmt.Errorf("sync op did not drain the queue")
		}
		if !bytes.Equal(dst, seqBytes(32, 7)) {
			return fmt.Errorf("sync load does not observe async store")
		}
		return nil
	}, core.WithAsync())
}

// TestAsyncEagerFallback pins that the *Async calls work on a handle without
// WithAsync: they execute eagerly and return completed Futures.
func TestAsyncEagerFallback(t *testing.T) {
	runAsync(t, func(p *core.PMEM) error {
		if p.AsyncEnabled() {
			return fmt.Errorf("AsyncEnabled = true without WithAsync")
		}
		if err := p.Alloc("A", serial.Uint8, []uint64{8}); err != nil {
			return err
		}
		fut := p.StoreBlockAsync("A", []uint64{0}, []uint64{8}, seqBytes(8, 1))
		if !fut.Done() {
			return fmt.Errorf("eager future not immediately done")
		}
		if err := fut.Wait(context.Background()); err != nil {
			return err
		}
		dst := make([]byte, 8)
		lf := p.LoadBlockAsync("A", []uint64{0}, []uint64{8}, dst)
		if !lf.Done() {
			return fmt.Errorf("eager load future not immediately done")
		}
		if err := lf.Wait(context.Background()); err != nil {
			return err
		}
		if !bytes.Equal(dst, seqBytes(8, 1)) {
			return fmt.Errorf("eager roundtrip mismatch")
		}
		return nil
	})
}

// TestAsyncHierarchyFallback pins that WithAsync on the hierarchy layout
// degrades to eager execution rather than failing.
func TestAsyncHierarchyFallback(t *testing.T) {
	runAsync(t, func(p *core.PMEM) error {
		if p.AsyncEnabled() {
			return fmt.Errorf("hierarchy layout should not enable the async queue")
		}
		if err := p.Alloc("A", serial.Uint8, []uint64{8}); err != nil {
			return err
		}
		fut := p.StoreBlockAsync("A", []uint64{0}, []uint64{8}, seqBytes(8, 3))
		if !fut.Done() {
			return fmt.Errorf("future not immediately done under hierarchy")
		}
		return fut.Wait(context.Background())
	}, core.WithAsync(), core.WithLayout(core.LayoutHierarchy))
}

// TestAsyncMunmapDrains pins the close-path guarantee: Munmap drains the
// queue, so a closed handle's submissions are durable and visible on reopen.
func TestAsyncMunmapDrains(t *testing.T) {
	n := node.New(sim.DefaultConfig(), 256<<20)
	var fut *core.Future
	_, err := mpi.Run(n.Machine, 1, func(c *mpi.Comm) error {
		p, err := core.Mmap(c, n, "/drain.pool", core.WithAsync())
		if err != nil {
			return err
		}
		if err := p.Alloc("A", serial.Uint8, []uint64{16}); err != nil {
			return err
		}
		fut = p.StoreBlockAsync("A", []uint64{0}, []uint64{16}, seqBytes(16, 9))
		return p.Munmap()
	})
	if err != nil {
		t.Fatal(err)
	}
	if !fut.Done() {
		t.Fatal("Munmap returned with the submission still pending")
	}
	if err := fut.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	_, err = mpi.Run(n.Machine, 1, func(c *mpi.Comm) error {
		p, err := core.Mmap(c, n, "/drain.pool")
		if err != nil {
			return err
		}
		dst := make([]byte, 16)
		if err := p.LoadBlock("A", []uint64{0}, []uint64{16}, dst); err != nil {
			return err
		}
		if !bytes.Equal(dst, seqBytes(16, 9)) {
			return fmt.Errorf("reopened data does not match drained submission")
		}
		return p.Munmap()
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestAsyncSameIDOrder pins the ordering contract for one id: submissions
// complete in submission order, so overlapping stores shadow in program
// order — the last submitted write wins.
func TestAsyncSameIDOrder(t *testing.T) {
	runAsync(t, func(p *core.PMEM) error {
		if err := p.Alloc("A", serial.Uint8, []uint64{32}); err != nil {
			return err
		}
		futs := make([]*core.Future, 8)
		for i := range futs {
			// Every store covers the same region with a distinct fill.
			fill := bytes.Repeat([]byte{byte(i + 1)}, 32)
			futs[i] = p.StoreBlockAsync("A", []uint64{0}, []uint64{32}, fill)
		}
		if err := p.Flush(context.Background()); err != nil {
			return err
		}
		for i := 1; i < len(futs); i++ {
			if futs[i].Done() && !futs[i-1].Done() {
				return fmt.Errorf("submission %d completed before %d", i, i-1)
			}
		}
		dst := make([]byte, 32)
		if err := p.LoadBlock("A", []uint64{0}, []uint64{32}, dst); err != nil {
			return err
		}
		if !bytes.Equal(dst, bytes.Repeat([]byte{8}, 32)) {
			return fmt.Errorf("last-writer-wins violated: got fill %d", dst[0])
		}
		return nil
	}, core.WithAsync(), core.WithCoalesceWindow(4))
}

// TestAsyncInterleavedKinds pins that datum stores and loads keep their queue
// position relative to block stores on the same id: a queued load observes
// the stores submitted before it but not the one submitted after.
func TestAsyncInterleavedKinds(t *testing.T) {
	runAsync(t, func(p *core.PMEM) error {
		if err := p.Alloc("A", serial.Uint8, []uint64{16}); err != nil {
			return err
		}
		sf1 := p.StoreBlockAsync("A", []uint64{0}, []uint64{16}, bytes.Repeat([]byte{1}, 16))
		dst := make([]byte, 16)
		lf := p.LoadBlockAsync("A", []uint64{0}, []uint64{16}, dst)
		sf2 := p.StoreBlockAsync("A", []uint64{0}, []uint64{16}, bytes.Repeat([]byte{2}, 16))
		if err := p.Flush(context.Background()); err != nil {
			return err
		}
		for name, f := range map[string]*core.Future{"store1": sf1, "load": lf, "store2": sf2} {
			if err := f.Wait(context.Background()); err != nil {
				return fmt.Errorf("%s: %v", name, err)
			}
		}
		if !bytes.Equal(dst, bytes.Repeat([]byte{1}, 16)) {
			return fmt.Errorf("queued load saw fill %d, want 1 (store2 must not be visible to it)", dst[0])
		}
		out := make([]byte, 16)
		if err := p.LoadBlock("A", []uint64{0}, []uint64{16}, out); err != nil {
			return err
		}
		if !bytes.Equal(out, bytes.Repeat([]byte{2}, 16)) {
			return fmt.Errorf("final state fill %d, want 2", out[0])
		}
		return nil
	}, core.WithAsync())
}

// TestAsyncBackpressure pins the bounded queue: submitting past 8 coalesce
// windows commits the oldest batch inline, so early futures complete without
// any explicit drain and the backpressure counter ticks.
func TestAsyncBackpressure(t *testing.T) {
	runAsync(t, func(p *core.PMEM) error {
		if err := p.Alloc("A", serial.Uint8, []uint64{1024}); err != nil {
			return err
		}
		var futs []*core.Future
		for i := 0; i < 40; i++ {
			futs = append(futs, p.StoreBlockAsync("A",
				[]uint64{uint64(i)}, []uint64{1}, []byte{byte(i)}))
		}
		if !futs[0].Done() {
			return fmt.Errorf("oldest submission still pending after %d submits past the bound", len(futs))
		}
		if got := p.Metrics().Get("pmemcpy_async_backpressure_total"); got == 0 {
			return fmt.Errorf("backpressure_total = 0, want > 0")
		}
		if got := p.AsyncPending(); got > 16 {
			return fmt.Errorf("AsyncPending = %d, want <= 16 (8 windows of 2)", got)
		}
		return p.Flush(context.Background())
	}, core.WithAsync(), core.WithCoalesceWindow(2))
}

// TestAsyncFlushCancel pins Flush's context handling: a cancelled context
// stops the drain, the remainder stays queued, and a later Flush completes it.
func TestAsyncFlushCancel(t *testing.T) {
	runAsync(t, func(p *core.PMEM) error {
		if err := p.Alloc("A", serial.Uint8, []uint64{16}); err != nil {
			return err
		}
		fut := p.StoreBlockAsync("A", []uint64{0}, []uint64{16}, seqBytes(16, 5))
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if err := p.Flush(ctx); !errors.Is(err, context.Canceled) {
			return fmt.Errorf("Flush(cancelled) = %v, want context.Canceled", err)
		}
		if fut.Done() {
			return fmt.Errorf("cancelled Flush completed the op")
		}
		if got := p.AsyncPending(); got != 1 {
			return fmt.Errorf("AsyncPending after cancelled Flush = %d, want 1", got)
		}
		if err := p.Flush(context.Background()); err != nil {
			return err
		}
		if !fut.Done() {
			return fmt.Errorf("op still pending after second Flush")
		}
		return fut.Wait(context.Background())
	}, core.WithAsync())
}

// TestAsyncWaitCancel pins Future.Wait's context handling: cancellation
// returns the context error and leaves the op queued for a later drain.
func TestAsyncWaitCancel(t *testing.T) {
	runAsync(t, func(p *core.PMEM) error {
		if err := p.Alloc("A", serial.Uint8, []uint64{16}); err != nil {
			return err
		}
		fut := p.StoreBlockAsync("A", []uint64{0}, []uint64{16}, seqBytes(16, 5))
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if err := fut.Wait(ctx); !errors.Is(err, context.Canceled) {
			return fmt.Errorf("Wait(cancelled) = %v, want context.Canceled", err)
		}
		if fut.Done() {
			return fmt.Errorf("cancelled Wait completed the op")
		}
		if err := fut.Wait(context.Background()); err != nil {
			return err
		}
		dst := make([]byte, 16)
		if err := p.LoadBlock("A", []uint64{0}, []uint64{16}, dst); err != nil {
			return err
		}
		if !bytes.Equal(dst, seqBytes(16, 5)) {
			return fmt.Errorf("roundtrip mismatch after Wait")
		}
		return nil
	}, core.WithAsync())
}

// TestAsyncBatchErrorIsolation pins the error taxonomy: a per-op failure
// (bounds) fails only its own Future; the rest of the batch commits.
func TestAsyncBatchErrorIsolation(t *testing.T) {
	runAsync(t, func(p *core.PMEM) error {
		if err := p.Alloc("A", serial.Uint8, []uint64{16}); err != nil {
			return err
		}
		good1 := p.StoreBlockAsync("A", []uint64{0}, []uint64{8}, seqBytes(8, 1))
		bad := p.StoreBlockAsync("A", []uint64{12}, []uint64{8}, seqBytes(8, 2))
		good2 := p.StoreBlockAsync("A", []uint64{8}, []uint64{8}, seqBytes(8, 3))
		// The datum row: a malformed StoreDatumAsync argument is as per-op as a
		// bad block selection — a valid store to another id queued behind it
		// must still commit.
		if err := p.Alloc("B", serial.Uint8, []uint64{8}); err != nil {
			return err
		}
		badDatum := p.StoreDatumAsync("D", &serial.Datum{Type: serial.Float64, Dims: []uint64{4}, Payload: make([]byte, 7)})
		good3 := p.StoreBlockAsync("B", []uint64{0}, []uint64{8}, seqBytes(8, 4))
		if err := p.Flush(context.Background()); err != nil {
			return fmt.Errorf("Flush surfaced a per-op error: %v", err)
		}
		if err := badDatum.Wait(context.Background()); !errors.Is(err, serial.ErrBadDatum) {
			return fmt.Errorf("malformed-datum future = %v, want ErrBadDatum", err)
		}
		if err := good3.Wait(context.Background()); err != nil {
			return fmt.Errorf("good3 poisoned by a malformed datum to another id: %v", err)
		}
		got := make([]byte, 8)
		if err := p.LoadBlock("B", []uint64{0}, []uint64{8}, got); err != nil || !bytes.Equal(got, seqBytes(8, 4)) {
			return fmt.Errorf("B after the batch = %v, %v: the valid store was not committed", got, err)
		}
		if err := bad.Wait(context.Background()); !errors.Is(err, core.ErrOutOfBounds) {
			return fmt.Errorf("out-of-bounds future = %v, want ErrOutOfBounds", err)
		}
		if err := good1.Wait(context.Background()); err != nil {
			return fmt.Errorf("good1 poisoned by sibling: %v", err)
		}
		if err := good2.Wait(context.Background()); err != nil {
			return fmt.Errorf("good2 poisoned by sibling: %v", err)
		}
		return nil
	}, core.WithAsync())
}

// TestAsyncQueueStress is the -race gate: several ranks hammer the shared
// store through their own async handles with mixed submissions, joins, and
// barrier-forcing sync ops, each rank checking its reads against a local
// model. Run under -race this exercises the engine mutex against the pool,
// allocator, and hashtable concurrency.
func TestAsyncQueueStress(t *testing.T) {
	const (
		ranks   = 4
		opsEach = 120
	)
	n := node.New(sim.DefaultConfig(), 256<<20)
	n.Machine.SetConcurrency(ranks)
	_, err := mpi.Run(n.Machine, ranks, func(c *mpi.Comm) error {
		p, err := core.Mmap(c, n, "/stress.pool",
			core.WithAsync(), core.WithCodec("raw"),
			core.WithCoalesceWindow(2)) // 8 windows: at most 16 in flight
		if err != nil {
			return err
		}
		rng := rand.New(rand.NewSource(int64(c.Rank()*104729 + 1)))
		id := fmt.Sprintf("r%d/a", c.Rank())
		const extent = 4096
		if err := p.Alloc(id, serial.Uint8, []uint64{extent}); err != nil {
			return err
		}
		model := make([]byte, extent)
		stored := false
		var futs []*core.Future
		for op := 0; op < opsEach; op++ {
			switch k := rng.Intn(10); {
			case k < 6: // async sub-store
				off := rng.Intn(extent - 1)
				cnt := 1 + rng.Intn(extent-off)
				data := make([]byte, cnt)
				rng.Read(data)
				copy(model[off:], data)
				stored = true
				futs = append(futs, p.StoreBlockAsync(id,
					[]uint64{uint64(off)}, []uint64{uint64(cnt)}, data))
			case k < 8: // join a random outstanding future
				if len(futs) > 0 {
					f := futs[rng.Intn(len(futs))]
					if err := f.Wait(context.Background()); err != nil {
						return fmt.Errorf("rank %d Wait: %v", c.Rank(), err)
					}
				}
			case k < 9: // sync load of a stored prefix (forces the barrier)
				if stored {
					dst := make([]byte, extent)
					if err := p.LoadBlock(id, []uint64{0}, []uint64{extent}, dst); err != nil {
						if errors.Is(err, core.ErrNotFound) {
							continue // gaps until the extent is covered
						}
						return fmt.Errorf("rank %d load: %v", c.Rank(), err)
					}
				}
			default:
				if err := p.Flush(context.Background()); err != nil {
					return fmt.Errorf("rank %d Flush: %v", c.Rank(), err)
				}
			}
		}
		// Cover the whole extent, drain, and check against the model.
		full := make([]byte, extent)
		rng.Read(full)
		copy(model, full)
		if err := p.StoreBlockAsync(id, []uint64{0}, []uint64{extent}, full).Wait(context.Background()); err != nil {
			return err
		}
		// Partial overwrites on top, left queued for Munmap's drain check.
		for i := 0; i < 8; i++ {
			off := rng.Intn(extent - 64)
			data := bytesview.Bytes([]uint64{rng.Uint64(), rng.Uint64()})
			copy(model[off:], data)
			p.StoreBlockAsync(id, []uint64{uint64(off)}, []uint64{uint64(len(data))}, data)
		}
		if err := p.Flush(context.Background()); err != nil {
			return err
		}
		dst := make([]byte, extent)
		if err := p.LoadBlock(id, []uint64{0}, []uint64{extent}, dst); err != nil {
			return err
		}
		if !bytes.Equal(dst, model) {
			return fmt.Errorf("rank %d: final state diverges from model", c.Rank())
		}
		return p.Munmap()
	})
	if err != nil {
		t.Fatal(err)
	}
}
