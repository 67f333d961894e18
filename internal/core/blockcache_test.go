package core_test

import (
	"errors"
	"math/rand"
	"testing"

	"pmemcpy/internal/bytesview"
	"pmemcpy/internal/core"
	"pmemcpy/internal/mpi"
	"pmemcpy/internal/node"
	"pmemcpy/internal/pmem"
	"pmemcpy/internal/serial"
	"pmemcpy/internal/sim"
)

func fillBlock(p *core.PMEM, id string, off, cnt uint64, val float64) error {
	vals := make([]float64, cnt)
	for i := range vals {
		vals[i] = val
	}
	return p.StoreBlock(id, []uint64{off}, []uint64{cnt}, bytesview.Bytes(vals))
}

// TestBlockCacheHitMiss checks the counter discipline: the first metadata
// read of an id is a miss that builds the index, repeats are hits, and every
// mutation invalidates.
func TestBlockCacheHitMiss(t *testing.T) {
	single(t, nil, func(p *core.PMEM) error {
		if err := p.Alloc("A", serial.Float64, []uint64{256}); err != nil {
			return err
		}
		if err := fillBlock(p, "A", 0, 256, 1); err != nil {
			return err
		}
		dst := make([]float64, 256)
		read := func() error {
			return p.LoadBlock("A", []uint64{0}, []uint64{256}, bytesview.Bytes(dst))
		}
		if err := read(); err != nil {
			return err
		}
		st, _ := p.Stats()
		if st.CacheMisses == 0 {
			t.Errorf("first read: misses = 0, want > 0")
		}
		hitsBefore := st.CacheHits
		for i := 0; i < 3; i++ {
			if err := read(); err != nil {
				return err
			}
			if _, _, err := p.MinMax("A"); err != nil {
				return err
			}
		}
		st, _ = p.Stats()
		if st.CacheHits < hitsBefore+6 {
			t.Errorf("repeat reads: hits = %d, want >= %d", st.CacheHits, hitsBefore+6)
		}
		missesBefore := st.CacheMisses
		if err := read(); err != nil {
			return err
		}
		st, _ = p.Stats()
		if st.CacheMisses != missesBefore {
			t.Errorf("hot read missed: misses %d -> %d", missesBefore, st.CacheMisses)
		}
		return nil
	})
}

// TestBlockCacheInvalidationOnOverwrite is the zero-stale-reads gate: after
// an overwrite, MinMax and LoadBlock must reflect the new data immediately,
// and the invalidation counter must move.
func TestBlockCacheInvalidationOnOverwrite(t *testing.T) {
	single(t, nil, func(p *core.PMEM) error {
		if err := p.Alloc("A", serial.Float64, []uint64{256}); err != nil {
			return err
		}
		if err := fillBlock(p, "A", 0, 256, 1); err != nil {
			return err
		}
		if _, mx, err := p.MinMax("A"); err != nil || mx != 1 {
			t.Fatalf("baseline MinMax: mx=%v err=%v", mx, err)
		}
		st, _ := p.Stats()
		invBefore := st.CacheInvalidations

		if err := fillBlock(p, "A", 64, 64, 9); err != nil {
			return err
		}
		st, _ = p.Stats()
		if st.CacheInvalidations <= invBefore {
			t.Errorf("overwrite did not invalidate: %d -> %d", invBefore, st.CacheInvalidations)
		}
		if _, mx, err := p.MinMax("A"); err != nil || mx != 9 {
			t.Errorf("post-overwrite MinMax: mx=%v err=%v, want 9 (stale cache?)", mx, err)
		}
		dst := make([]float64, 256)
		if err := p.LoadBlock("A", []uint64{0}, []uint64{256}, bytesview.Bytes(dst)); err != nil {
			return err
		}
		if dst[63] != 1 || dst[64] != 9 || dst[127] != 9 || dst[128] != 1 {
			t.Errorf("post-overwrite read: [63]=%v [64]=%v [127]=%v [128]=%v", dst[63], dst[64], dst[127], dst[128])
		}
		return nil
	})
}

// TestBlockCacheInvalidationOnOverwriteAndDelete checks the two reclamation
// mutations: an overwrite republishes the list with the block it shadows
// dropped (reads see the new block) and Delete drops the blocks entirely
// (reads turn into ErrNotFound) — both must invalidate a hot index.
func TestBlockCacheInvalidationOnOverwriteAndDelete(t *testing.T) {
	single(t, nil, func(p *core.PMEM) error {
		if err := p.Alloc("A", serial.Float64, []uint64{256}); err != nil {
			return err
		}
		if err := fillBlock(p, "A", 0, 256, 1); err != nil {
			return err
		}
		dst := make([]float64, 256)
		if err := p.LoadBlock("A", []uint64{0}, []uint64{256}, bytesview.Bytes(dst)); err != nil {
			return err // index now hot
		}
		st, _ := p.Stats()
		invBefore, freesBefore := st.CacheInvalidations, st.Frees
		if err := fillBlock(p, "A", 0, 256, 2); err != nil { // shadows fully
			return err
		}
		st, _ = p.Stats()
		if st.Frees <= freesBefore {
			t.Errorf("the overwrite freed nothing: %d -> %d", freesBefore, st.Frees)
		}
		if st.CacheInvalidations <= invBefore {
			t.Errorf("the overwrite did not invalidate: %d -> %d", invBefore, st.CacheInvalidations)
		}
		if err := p.LoadBlock("A", []uint64{0}, []uint64{256}, bytesview.Bytes(dst)); err != nil {
			return err
		}
		if dst[0] != 2 || dst[255] != 2 {
			t.Errorf("post-overwrite read: [0]=%v [255]=%v, want 2", dst[0], dst[255])
		}

		invBefore = st.CacheInvalidations
		if _, err := p.Delete("A"); err != nil {
			return err
		}
		st, _ = p.Stats()
		if st.CacheInvalidations <= invBefore {
			t.Errorf("Delete did not invalidate: %d -> %d", invBefore, st.CacheInvalidations)
		}
		err := p.LoadBlock("A", []uint64{0}, []uint64{256}, bytesview.Bytes(dst))
		if !errors.Is(err, core.ErrNotFound) {
			t.Errorf("post-Delete read: err = %v, want ErrNotFound", err)
		}
		return nil
	})
}

// TestBlockCacheDimsIDNeverReadsBaseIndex guards the shared slot: "x#dims"
// shares x's lock, and so x's variable, but must never be served x's DRAM
// index — warmed by a load and by statistics, before and after an overwrite —
// by any request or statistics read: each is ErrNotFound, as with no index.
func TestBlockCacheDimsIDNeverReadsBaseIndex(t *testing.T) {
	single(t, nil, func(p *core.PMEM) error {
		if err := p.Alloc("x", serial.Float64, []uint64{64}); err != nil {
			return err
		}
		offs, counts := []uint64{0}, []uint64{64}
		dst := make([]float64, 64)
		for round, val := range []float64{1, 2} {
			if err := fillBlock(p, "x", 0, 64, val); err != nil {
				return err
			}
			if err := p.LoadBlock("x", offs, counts, bytesview.Bytes(dst)); err != nil {
				return err
			}
			if _, err := p.BlockStatsOf("x"); err != nil {
				return err
			}
			id := "x" + core.DimsSuffix
			view, err := p.LoadBlockView(id, offs, counts)
			if view != nil {
				view.Close()
			}
			_, statsErr := p.BlockStatsOf(id)
			_, _, minMaxErr := p.MinMax(id)
			for name, err := range map[string]error{
				"LoadBlock":     p.LoadBlock(id, offs, counts, bytesview.Bytes(dst)),
				"LoadBlockView": err,
				"BlockStatsOf":  statsErr,
				"MinMax":        minMaxErr,
			} {
				if !errors.Is(err, core.ErrNotFound) {
					t.Errorf("round %d: %s(%q) = %v, want ErrNotFound", round, name, id, err)
				}
			}
		}
		return nil
	})
}

// TestBlockCacheFreshAfterCrashRecovery exercises the recovery contract: a
// crash kills the open handle (and its DRAM index with it); the re-Mmap'd
// handle starts a cold cache and must serve the recovered — not the cached —
// truth. The overwrite is power-failed at an arbitrary persist point, so the
// recovered store holds either all-old or all-new data.
func TestBlockCacheFreshAfterCrashRecovery(t *testing.T) {
	const elems = 512
	rng := rand.New(rand.NewSource(7))
	n := node.New(sim.DefaultConfig(), 32<<20,
		node.WithDeviceOptions(pmem.WithCrashTracking()))
	n.Machine.SetConcurrency(1)

	// Baseline: A = all 1s, index made hot by a read.
	_, err := mpi.Run(n.Machine, 1, func(c *mpi.Comm) error {
		p, err := core.Mmap(c, n, "/bc.pool", nil)
		if err != nil {
			return err
		}
		if err := p.Alloc("A", serial.Float64, []uint64{elems}); err != nil {
			return err
		}
		if err := fillBlock(p, "A", 0, elems, 1); err != nil {
			return err
		}
		dst := make([]float64, elems)
		if err := p.LoadBlock("A", []uint64{0}, []uint64{elems}, bytesview.Bytes(dst)); err != nil {
			return err
		}
		// Power-fail mid-overwrite: the handle dies with its cache.
		n.Device.ArmCrashAtOp(3, 0)
		serr := fillBlock(p, "A", 0, elems, 2)
		if serr != nil && !errors.Is(serr, pmem.ErrFailed) {
			t.Errorf("unexpected store error: %v", serr)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	n.Device.Crash(pmem.CrashRandom, rng)

	// Recover: the fresh handle's cache starts empty and must reflect the
	// device truth, not anything the dead handle had indexed.
	_, err = mpi.Run(n.Machine, 1, func(c *mpi.Comm) error {
		p, err := core.Mmap(c, n, "/bc.pool", nil)
		if err != nil {
			return err
		}
		st, _ := p.Stats()
		if st.CacheHits != 0 || st.CacheMisses != 0 {
			t.Errorf("recovered handle cache not cold: hits=%d misses=%d", st.CacheHits, st.CacheMisses)
		}
		dst := make([]float64, elems)
		if err := p.LoadBlock("A", []uint64{0}, []uint64{elems}, bytesview.Bytes(dst)); err != nil {
			return err
		}
		for i, v := range dst {
			if v != dst[0] {
				t.Fatalf("torn recovery: dst[0]=%v dst[%d]=%v", dst[0], i, v)
			}
		}
		if dst[0] != 1 && dst[0] != 2 {
			t.Errorf("recovered value %v, want 1 (old) or 2 (new)", dst[0])
		}
		return p.Munmap()
	})
	if err != nil {
		t.Fatal(err)
	}
}
