package core_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"pmemcpy/internal/bytesview"
	"pmemcpy/internal/core"
	"pmemcpy/internal/serial"
)

func storeAll(p *core.PMEM, id string, v float64, offs, counts []uint64) error {
	n := uint64(1)
	for _, c := range counts {
		n *= c
	}
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = v
	}
	return p.StoreBlock(id, offs, counts, bytesview.Bytes(vals))
}

func readAll(p *core.PMEM, id string, dims []uint64) ([]byte, error) {
	n := uint64(8)
	for _, d := range dims {
		n *= d
	}
	dst := make([]byte, n)
	offs := make([]uint64, len(dims))
	return dst, p.LoadBlock(id, offs, dims, dst)
}

// listed is how many blocks id's block list names.
func listed(t *testing.T, p *core.PMEM, id string) int {
	t.Helper()
	blocks, err := p.NamedBlocks(id)
	if err != nil {
		t.Fatal(err)
	}
	return len(blocks)
}

// TestOverwriteFreesShadowedBlocks: an overwrite drops, in its own record
// change, every listed block its new block contains — the list stays one
// block long, the allocator gets each shadowed block back, and MinMax still
// spans every value stored.
func TestOverwriteFreesShadowedBlocks(t *testing.T) {
	single(t, nil, func(p *core.PMEM) error {
		dims := []uint64{64}
		if err := p.Alloc("A", serial.Float64, dims); err != nil {
			return err
		}
		for round := 1; round <= 4; round++ {
			st0, err := p.Stats()
			if err != nil {
				return err
			}
			if err := storeAll(p, "A", float64(round), []uint64{0}, dims); err != nil {
				return err
			}
			st1, err := p.Stats()
			if err != nil {
				return err
			}
			if n := listed(t, p, "A"); n != 1 {
				t.Errorf("round %d: A lists %d blocks, want 1", round, n)
			}
			if round > 1 && st1.Frees == st0.Frees {
				t.Errorf("round %d: the overwrite freed nothing", round)
			}
		}
		got, err := readAll(p, "A", dims)
		if err != nil {
			return err
		}
		if v := bytesview.OfCopy[float64](got); v[0] != 4 || v[63] != 4 {
			t.Errorf("A = [%g .. %g], want 4", v[0], v[63])
		}
		if mn, mx, err := p.MinMax("A"); err != nil || mn != 1 || mx != 4 {
			t.Errorf("MinMax(A) = [%g, %g], %v; want the running range [1, 4]", mn, mx, err)
		}
		return nil
	})
}

// TestOverwriteKeepsPartialOverlaps: a block only partly covered by a newer
// one, or shadowed only by the union of several, stays listed — the prune
// never changes what a read returns.
func TestOverwriteKeepsPartialOverlaps(t *testing.T) {
	single(t, nil, func(p *core.PMEM) error {
		dims := []uint64{64}
		if err := p.Alloc("B", serial.Float64, dims); err != nil {
			return err
		}
		// A middle block, then two halves whose union covers it: neither half
		// contains it, so all three stay listed.
		for _, s := range []struct {
			v      float64
			off, n uint64
		}{{1, 16, 32}, {2, 0, 32}, {3, 32, 32}} {
			if err := storeAll(p, "B", s.v, []uint64{s.off}, []uint64{s.n}); err != nil {
				return err
			}
		}
		if n := listed(t, p, "B"); n != 3 {
			t.Errorf("B lists %d blocks, want 3", n)
		}
		got, err := readAll(p, "B", dims)
		if err != nil {
			return err
		}
		want := make([]float64, 64)
		for i := range want {
			want[i] = 2
			if i >= 32 {
				want[i] = 3
			}
		}
		if !bytes.Equal(got, bytesview.Bytes(want)) {
			t.Error("B reads other values than its stores left")
		}
		// A store covering the whole extent contains all three.
		if err := storeAll(p, "B", 4, []uint64{0}, dims); err != nil {
			return err
		}
		if n := listed(t, p, "B"); n != 1 {
			t.Errorf("B lists %d blocks after a full store, want 1", n)
		}
		if mn, mx, err := p.MinMax("B"); err != nil || mn != 1 || mx != 4 {
			t.Errorf("MinMax(B) = [%g, %g], %v; want [1, 4]", mn, mx, err)
		}
		return nil
	})
}

// TestOverwriteReclaimsPoolSpace: the blocks an overwrite drops go back to the
// allocator, so a run of overwrites does not grow the heap.
func TestOverwriteReclaimsPoolSpace(t *testing.T) {
	single(t, nil, func(p *core.PMEM) error {
		dims := []uint64{1 << 12}
		if err := p.Alloc("C", serial.Float64, dims); err != nil {
			return err
		}
		for round := 0; round < 2; round++ {
			if err := storeAll(p, "C", float64(round), []uint64{0}, dims); err != nil {
				return err
			}
		}
		st0, err := p.Stats()
		if err != nil {
			return err
		}
		for round := 0; round < 6; round++ {
			if err := storeAll(p, "C", float64(round+10), []uint64{0}, dims); err != nil {
				return err
			}
		}
		st1, err := p.Stats()
		if err != nil {
			return err
		}
		if st1.Frees < st0.Frees+6 {
			t.Errorf("Frees grew %d -> %d over 6 overwrites", st0.Frees, st1.Frees)
		}
		if st1.HeapUsed > st0.HeapUsed+(1<<16) {
			t.Errorf("heap kept growing over overwrites: %d -> %d", st0.HeapUsed, st1.HeapUsed)
		}
		return nil
	})
}

// TestDroppedBlockDamageLosesOnlyTheRange: a block an overwrite drops folds
// its value range into the list's trailer, read as MinMax would read it. When
// it cannot be read so — its CRC fails under VerifyFull, its bp4 header no
// longer parses, or it is quarantined — the store still succeeds and reads
// stay right; only the range is lost: MinMax is ErrCorrupt, DeepCheck and
// VerifyStore report the array, until a Delete starts it afresh.
func TestDroppedBlockDamageLosesOnlyTheRange(t *testing.T) {
	dims := []uint64{64}
	for _, tc := range []struct {
		name   string
		opts   *core.Options
		damage func(p *core.PMEM) error
	}{
		{"crc under VerifyFull", &core.Options{VerifyReads: core.VerifyFull}, func(p *core.PMEM) error {
			_, _, err := p.InjectCorruption("A", 0, 100, 1, 0x01)
			return err
		}},
		{"bp4 header", nil, func(p *core.PMEM) error {
			_, _, err := p.InjectCorruption("A", 0, 0, 8, 0xff)
			return err
		}},
		{"quarantined", nil, func(p *core.PMEM) error {
			if _, _, err := p.InjectCorruption("A", 0, 100, 1, 0x01); err != nil {
				return err
			}
			rep, err := p.Scrub(context.Background())
			if err == nil && rep.Quarantined != 1 {
				err = fmt.Errorf("scrub quarantined %d blocks, want 1", rep.Quarantined)
			}
			return err
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			single(t, tc.opts, func(p *core.PMEM) error {
				if err := p.Alloc("A", serial.Float64, dims); err != nil {
					return err
				}
				if err := storeAll(p, "A", 1, []uint64{0}, dims); err != nil {
					return err
				}
				if err := tc.damage(p); err != nil {
					return err
				}
				if err := storeAll(p, "A", 2, []uint64{0}, dims); err != nil {
					return fmt.Errorf("the overwrite dropping a damaged block failed: %w", err)
				}
				if got, err := readAll(p, "A", dims); err != nil || bytesview.OfCopy[float64](got)[0] != 2 {
					return fmt.Errorf("A after the overwrite: %v", err)
				}
				if len(p.Quarantined()) != 0 {
					t.Errorf("the dropped block stayed quarantined: %v", p.Quarantined())
				}
				if _, _, err := p.MinMax("A"); !errors.Is(err, core.ErrCorrupt) {
					t.Errorf("MinMax = %v, want ErrCorrupt", err)
				}
				if bs, err := p.BlockStatsOf("A"); err != nil || len(bs) != 1 {
					t.Errorf("BlockStatsOf = %d blocks, %v; want the live one", len(bs), err)
				}
				if rep, err := p.DeepCheck(); err != nil || !slices.Equal(rep.Unranged, []string{"A"}) || len(rep.Corrupt) != 0 {
					t.Errorf("DeepCheck = %+v, %v; want A unranged, nothing corrupt", rep, err)
				}
				if vs := p.VerifyStore(); len(vs) != 1 || !strings.HasPrefix(vs[0], `store.range: "A"`) {
					t.Errorf("VerifyStore = %q, want one store.range finding", vs)
				}
				if err := storeAll(p, "A", 3, []uint64{0}, dims); err != nil {
					return err
				}
				if _, _, err := p.MinMax("A"); !errors.Is(err, core.ErrCorrupt) {
					t.Errorf("MinMax after a further overwrite = %v, want ErrCorrupt until a reset", err)
				}
				if _, err := p.Delete("A"); err != nil {
					return err
				}
				if err := storeAll(p, "A", 4, []uint64{0}, dims); err != nil {
					return err
				}
				if mn, mx, err := p.MinMax("A"); err != nil || mn != 4 || mx != 4 {
					t.Errorf("MinMax after Delete and a store = [%g, %g], %v; want [4, 4]", mn, mx, err)
				}
				if vs := p.VerifyStore(); len(vs) != 0 {
					t.Errorf("VerifyStore after the reset = %q", vs)
				}
				return nil
			})
		})
	}
}
