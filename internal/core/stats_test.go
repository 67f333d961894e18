package core_test

import (
	"fmt"
	"math"
	"testing"
	"time"

	"pmemcpy/internal/bytesview"
	"pmemcpy/internal/core"
	"pmemcpy/internal/mpi"
	"pmemcpy/internal/serial"
)

// storeRanged stores nblocks blocks of id, block b holding values in
// [b*100, b*100+63].
func storeRanged(p *core.PMEM, id string, nblocks int) error {
	if err := p.Alloc(id, serial.Float64, []uint64{uint64(nblocks) * 64}); err != nil {
		return err
	}
	for b := 0; b < nblocks; b++ {
		vals := make([]float64, 64)
		for i := range vals {
			vals[i] = float64(b*100 + i)
		}
		if err := p.StoreBlock(id, []uint64{uint64(b) * 64}, []uint64{64},
			bytesview.Bytes(vals)); err != nil {
			return err
		}
	}
	return nil
}

func TestMinMaxFromCharacteristics(t *testing.T) {
	single(t, nil, func(p *core.PMEM) error {
		if err := storeRanged(p, "A", 4); err != nil {
			return err
		}
		mn, mx, err := p.MinMax("A")
		if err != nil {
			return err
		}
		if mn != 0 || mx != 363 {
			t.Errorf("MinMax = (%g, %g), want (0, 363)", mn, mx)
		}
		blocks, err := p.BlockStatsOf("A")
		if err != nil {
			return err
		}
		if len(blocks) != 4 {
			t.Fatalf("blocks = %d", len(blocks))
		}
		for i, b := range blocks {
			if !b.Skipped {
				t.Errorf("block %d not served from BP4 characteristics", i)
			}
			if b.Min != float64(i*100) || b.Max != float64(i*100+63) {
				t.Errorf("block %d range (%g,%g)", i, b.Min, b.Max)
			}
		}
		return nil
	})
}

func TestMinMaxFallbackScanForStatlessCodec(t *testing.T) {
	single(t, &core.Options{Codec: "flat"}, func(p *core.PMEM) error {
		if err := storeRanged(p, "A", 3); err != nil {
			return err
		}
		mn, mx, err := p.MinMax("A")
		if err != nil {
			return err
		}
		if mn != 0 || mx != 263 {
			t.Errorf("MinMax = (%g, %g), want (0, 263)", mn, mx)
		}
		blocks, err := p.BlockStatsOf("A")
		if err != nil {
			return err
		}
		for i, b := range blocks {
			if b.Skipped {
				t.Errorf("block %d claims characteristics under the flat codec", i)
			}
			if !b.HasStats {
				t.Errorf("block %d has no stats after scan", i)
			}
		}
		return nil
	})
}

// TestRangeQueriesSeePastNaN: a NaN is not a value, wherever it sits. A block
// that merely starts with one used to store (or scan to) NaN/NaN, which MinMax
// ignored and FindBlocks could never match — a block holding a hit, skipped.
// Both sources of a block's range are covered: bp4's stored characteristics
// and the payload scan under a codec that stores none.
func TestRangeQueriesSeePastNaN(t *testing.T) {
	nan := math.NaN()
	for _, codec := range []string{"bp4", "raw"} {
		single(t, &core.Options{Codec: codec}, func(p *core.PMEM) error {
			if err := p.Alloc("A", serial.Float64, []uint64{12}); err != nil {
				return err
			}
			for b, vals := range [][]float64{{nan, 5, 7, 6}, {nan, nan, nan, nan}, {100, nan, 101, 102}} {
				if err := p.StoreBlock("A", []uint64{uint64(b) * 4}, []uint64{4}, bytesview.Bytes(vals)); err != nil {
					return err
				}
			}
			hits, err := p.FindBlocks("A", 4, 6)
			if err != nil {
				return err
			}
			if len(hits) != 1 || hits[0].Offs[0] != 0 || hits[0].Min != 5 || hits[0].Max != 7 {
				t.Errorf("%s: FindBlocks(4, 6) = %+v, want the block at 0 with range (5,7)", codec, hits)
			}
			// The block with no values at all matches no range.
			if all, err := p.FindBlocks("A", math.Inf(-1), math.Inf(1)); err != nil || len(all) != 2 {
				t.Errorf("%s: FindBlocks(-Inf, +Inf) = %d blocks (err %v), want 2", codec, len(all), err)
			}
			mn, mx, err := p.MinMax("A")
			if err != nil {
				return err
			}
			if mn != 5 || mx != 102 {
				t.Errorf("%s: MinMax = (%g, %g), want (5, 102)", codec, mn, mx)
			}
			return nil
		})
	}
}

func TestFindBlocksSkipsOutOfRange(t *testing.T) {
	single(t, nil, func(p *core.PMEM) error {
		if err := storeRanged(p, "A", 8); err != nil {
			return err
		}
		// Values 250..299 live only in block 2 (200..263)? No: block 2 holds
		// 200..263, block 3 holds 300..363. Query [250, 310] intersects
		// blocks 2 and 3 only.
		hits, err := p.FindBlocks("A", 250, 310)
		if err != nil {
			return err
		}
		if len(hits) != 2 {
			t.Fatalf("FindBlocks = %d blocks, want 2", len(hits))
		}
		if hits[0].Offs[0] != 2*64 || hits[1].Offs[0] != 3*64 {
			t.Fatalf("hit offsets = %v, %v", hits[0].Offs, hits[1].Offs)
		}
		// A range below all data matches nothing.
		none, err := p.FindBlocks("A", -100, -1)
		if err != nil {
			return err
		}
		if len(none) != 0 {
			t.Fatalf("FindBlocks(empty range) = %d", len(none))
		}
		return nil
	})
}

func TestStatsQueriesCheaperThanScan(t *testing.T) {
	// With BP4 characteristics, MinMax must cost far less virtual time than
	// with the stat-less flat codec (which must scan all payloads).
	cost := func(codec string) time.Duration {
		n := newNode()
		var dt time.Duration
		_, err := mpi.Run(n.Machine, 1, func(c *mpi.Comm) error {
			p, err := core.Mmap(c, n, "/stats.pool", core.OptionsArg(&core.Options{Codec: codec}))
			if err != nil {
				return err
			}
			if err := p.Alloc("big", serial.Float64, []uint64{1 << 18}); err != nil {
				return err
			}
			vals := make([]float64, 1<<18)
			for i := range vals {
				vals[i] = float64(i)
			}
			if err := p.StoreBlock("big", []uint64{0}, []uint64{1 << 18},
				bytesview.Bytes(vals)); err != nil {
				return err
			}
			t0 := c.Clock().Now()
			if _, _, err := p.MinMax("big"); err != nil {
				return err
			}
			dt = c.Clock().Now() - t0
			return p.Munmap()
		})
		if err != nil {
			t.Fatal(err)
		}
		return dt
	}
	bp4 := cost("bp4")
	flat := cost("flat")
	if bp4*10 >= flat {
		t.Fatalf("BP4 stats query %v not >>10x cheaper than scan %v", bp4, flat)
	}
}

func TestStatsErrors(t *testing.T) {
	single(t, nil, func(p *core.PMEM) error {
		if _, _, err := p.MinMax("ghost"); err == nil {
			t.Error("MinMax(missing) succeeded")
		}
		if err := p.Alloc("empty", serial.Float64, []uint64{8}); err != nil {
			return err
		}
		if _, err := p.BlockStatsOf("empty"); err == nil {
			t.Error("BlockStatsOf with no blocks succeeded")
		}
		return nil
	})
	// Hierarchy layout rejects stats queries.
	single(t, &core.Options{Layout: core.LayoutHierarchy}, func(p *core.PMEM) error {
		if err := storeRangedHier(p); err != nil {
			return err
		}
		if _, err := p.BlockStatsOf("h"); err == nil {
			t.Error("BlockStatsOf on hierarchy layout succeeded")
		}
		return nil
	})
}

func storeRangedHier(p *core.PMEM) error {
	if err := p.Alloc("h", serial.Float64, []uint64{8}); err != nil {
		return err
	}
	vals := make([]float64, 8)
	return p.StoreBlock("h", []uint64{0}, []uint64{8}, bytesview.Bytes(vals))
}

func TestMinMaxMultiRank(t *testing.T) {
	n := newNode()
	const ranks = 4
	_, err := mpi.Run(n.Machine, ranks, func(c *mpi.Comm) error {
		p, err := core.Mmap(c, n, "/mr.pool", nil)
		if err != nil {
			return err
		}
		if err := p.Alloc("X", serial.Float64, []uint64{ranks * 16}); err != nil {
			return err
		}
		vals := make([]float64, 16)
		for i := range vals {
			vals[i] = float64(c.Rank()*1000 + i)
		}
		if err := p.StoreBlock("X", []uint64{uint64(c.Rank()) * 16}, []uint64{16},
			bytesview.Bytes(vals)); err != nil {
			return err
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		mn, mx, err := p.MinMax("X")
		if err != nil {
			return err
		}
		if mn != 0 || mx != float64((ranks-1)*1000+15) {
			return fmt.Errorf("rank %d: MinMax = (%g, %g)", c.Rank(), mn, mx)
		}
		return p.Munmap()
	})
	if err != nil {
		t.Fatal(err)
	}
}
