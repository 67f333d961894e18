package pmemcpy_test

import (
	"errors"
	"fmt"
	"testing"

	"pmemcpy"
)

func newNode() *pmemcpy.Node {
	return pmemcpy.NewNode(pmemcpy.DefaultConfig(), 64<<20)
}

// single runs fn as a one-rank job against a fresh store.
func single(t *testing.T, fn func(p *pmemcpy.PMEM) error) {
	t.Helper()
	n := newNode()
	_, err := pmemcpy.Run(n, 1, func(c *pmemcpy.Comm) error {
		p, err := pmemcpy.Mmap(c, n, "/t.pool")
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

func TestScalarTypesRoundTrip(t *testing.T) {
	single(t, func(p *pmemcpy.PMEM) error {
		if err := pmemcpy.Store(p, "f64", 2.718281828); err != nil {
			return err
		}
		if err := pmemcpy.Store(p, "i32", int32(-12345)); err != nil {
			return err
		}
		if err := pmemcpy.Store(p, "u8", uint8(250)); err != nil {
			return err
		}
		f, err := pmemcpy.Load[float64](p, "f64")
		if err != nil || f != 2.718281828 {
			return fmt.Errorf("f64 = %v, %v", f, err)
		}
		i, err := pmemcpy.Load[int32](p, "i32")
		if err != nil || i != -12345 {
			return fmt.Errorf("i32 = %v, %v", i, err)
		}
		u, err := pmemcpy.Load[uint8](p, "u8")
		if err != nil || u != 250 {
			return fmt.Errorf("u8 = %v, %v", u, err)
		}
		return nil
	})
}

func TestLoadTypeMismatchRejected(t *testing.T) {
	single(t, func(p *pmemcpy.PMEM) error {
		if err := pmemcpy.Store(p, "x", float64(1)); err != nil {
			return err
		}
		if _, err := pmemcpy.Load[int8](p, "x"); err == nil {
			return errors.New("int8 load of a float64 succeeded")
		}
		return nil
	})
}

func TestStringRoundTrip(t *testing.T) {
	single(t, func(p *pmemcpy.PMEM) error {
		if err := pmemcpy.StoreString(p, "msg", "hello PMEM"); err != nil {
			return err
		}
		s, err := pmemcpy.LoadString(p, "msg")
		if err != nil || s != "hello PMEM" {
			return fmt.Errorf("LoadString = %q, %v", s, err)
		}
		if _, err := pmemcpy.LoadString(p, "missing"); err == nil {
			return errors.New("LoadString(missing) succeeded")
		}
		return nil
	})
}

func TestStoreSliceLoadSlice(t *testing.T) {
	single(t, func(p *pmemcpy.PMEM) error {
		data := make([]float32, 6*4)
		for i := range data {
			data[i] = float32(i) * 1.5
		}
		if err := pmemcpy.StoreSlice(p, "grid", data, 6, 4); err != nil {
			return err
		}
		got, dims, err := pmemcpy.LoadSlice[float32](p, "grid")
		if err != nil {
			return err
		}
		if len(dims) != 2 || dims[0] != 6 || dims[1] != 4 {
			return fmt.Errorf("dims = %v", dims)
		}
		for i := range data {
			if got[i] != data[i] {
				return fmt.Errorf("elem %d = %g, want %g", i, got[i], data[i])
			}
		}
		return nil
	})
}

// TestFigure3Example is the paper's usage example, Figure 3: each of nprocs
// ranks writes 100 doubles at non-overlapping offsets of a shared 1-D array.
func TestFigure3Example(t *testing.T) {
	n := newNode()
	const nprocs = 4
	_, err := pmemcpy.Run(n, nprocs, func(c *pmemcpy.Comm) error {
		pm, err := pmemcpy.Mmap(c, n, "/fig3.pool")
		if err != nil {
			return err
		}
		count := uint64(100)
		off := count * uint64(c.Rank())
		dimsf := count * uint64(c.Size())

		data := make([]float64, count)
		for i := range data {
			data[i] = float64(off) + float64(i)
		}
		if err := pmemcpy.Alloc[float64](pm, "A", dimsf); err != nil {
			return err
		}
		if err := pmemcpy.StoreSub(pm, "A", data, []uint64{off}, []uint64{count}); err != nil {
			return err
		}
		if err := pm.Munmap(); err != nil {
			return err
		}

		// Read everything back on every rank and verify.
		pm2, err := pmemcpy.Mmap(c, n, "/fig3.pool")
		if err != nil {
			return err
		}
		dims, err := pmemcpy.LoadDims(pm2, "A")
		if err != nil {
			return err
		}
		if len(dims) != 1 || dims[0] != dimsf {
			return fmt.Errorf("dims = %v, want [%d]", dims, dimsf)
		}
		whole := make([]float64, dimsf)
		if err := pmemcpy.LoadSub(pm2, "A", whole, []uint64{0}, []uint64{dimsf}); err != nil {
			return err
		}
		for i, v := range whole {
			if v != float64(i) {
				return fmt.Errorf("A[%d] = %g", i, v)
			}
		}
		return pm2.Munmap()
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestHierarchyThroughPublicAPI(t *testing.T) {
	n := newNode()
	_, err := pmemcpy.Run(n, 1, func(c *pmemcpy.Comm) error {
		p, err := pmemcpy.Mmap(c, n, "/tree", pmemcpy.WithLayout(pmemcpy.LayoutHierarchy))
		if err != nil {
			return err
		}
		if err := pmemcpy.StoreSlice(p, "run1/step5/rho", []float64{1, 2, 3}, 3); err != nil {
			return err
		}
		got, dims, err := pmemcpy.LoadSlice[float64](p, "run1/step5/rho")
		if err != nil {
			return err
		}
		if dims[0] != 3 || got[2] != 3 {
			return fmt.Errorf("got %v dims %v", got, dims)
		}
		return p.Munmap()
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDerivedElementTypes(t *testing.T) {
	type Celsius float64
	single(t, func(p *pmemcpy.PMEM) error {
		if err := pmemcpy.StoreSlice(p, "temps", []Celsius{21.5, 22.0}, 2); err != nil {
			return err
		}
		got, _, err := pmemcpy.LoadSlice[Celsius](p, "temps")
		if err != nil {
			return err
		}
		if got[1] != 22.0 {
			return fmt.Errorf("got %v", got)
		}
		return nil
	})
}

func TestStoreLoadStruct(t *testing.T) {
	type probe struct {
		Name    string
		Weights []float64
		Coords  [3]float64
	}
	type experiment struct {
		Step   int64
		Note   string
		Probes []probe // nested compound + dynamic arrays: HDF5 can't do this
	}
	single(t, func(p *pmemcpy.PMEM) error {
		in := experiment{
			Step: 12,
			Note: "structured value demo",
			Probes: []probe{
				{Name: "p0", Weights: []float64{1, 2, 3}, Coords: [3]float64{0, 0, 1}},
				{Name: "p1", Weights: []float64{4}, Coords: [3]float64{1, 2, 3}},
			},
		}
		if err := pmemcpy.StoreStruct(p, "exp", &in); err != nil {
			return err
		}
		var out experiment
		if err := pmemcpy.LoadStruct(p, "exp", &out); err != nil {
			return err
		}
		if out.Step != 12 || len(out.Probes) != 2 || out.Probes[1].Coords[2] != 3 ||
			out.Probes[0].Weights[1] != 2 || out.Note != in.Note {
			return fmt.Errorf("LoadStruct = %+v", out)
		}
		// A scalar is not a structured value.
		if err := pmemcpy.Store(p, "plain", int64(1)); err != nil {
			return err
		}
		if err := pmemcpy.LoadStruct(p, "plain", &out); err == nil {
			return errors.New("LoadStruct on a scalar succeeded")
		}
		return nil
	})
}

func TestRunReportsVirtualTimes(t *testing.T) {
	n := newNode()
	times, err := pmemcpy.Run(n, 3, func(c *pmemcpy.Comm) error {
		p, err := pmemcpy.Mmap(c, n, "/times.pool")
		if err != nil {
			return err
		}
		return p.Munmap()
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(times) != 3 {
		t.Fatalf("times = %v", times)
	}
	for r, d := range times {
		if d <= 0 {
			t.Fatalf("rank %d virtual time = %v, want > 0", r, d)
		}
	}
}

func TestMinMaxAndFindBlocksPublicAPI(t *testing.T) {
	single(t, func(p *pmemcpy.PMEM) error {
		if err := pmemcpy.Alloc[float64](p, "temps", 128); err != nil {
			return err
		}
		for b := 0; b < 2; b++ {
			vals := make([]float64, 64)
			for i := range vals {
				vals[i] = float64(b*500 + i)
			}
			off := []uint64{uint64(b) * 64}
			if err := pmemcpy.StoreSub(p, "temps", vals, off, []uint64{64}); err != nil {
				return err
			}
		}
		mn, mx, err := pmemcpy.MinMax(p, "temps")
		if err != nil {
			return err
		}
		if mn != 0 || mx != 563 {
			return fmt.Errorf("MinMax = (%g, %g)", mn, mx)
		}
		hits, err := pmemcpy.FindBlocks(p, "temps", 500, 520)
		if err != nil {
			return err
		}
		if len(hits) != 1 || hits[0].Offs[0] != 64 {
			return fmt.Errorf("FindBlocks = %+v", hits)
		}
		return nil
	})
}

// TestScalarOverwriteHeapBudget pins the Go-heap cost of the per-op path the
// smallkv workload measures: an overwriting Store of a scalar is 7 allocations.
// It was 9 while the value lived in a block of its own — the block's
// transaction and the fill's job list are the two that went. The update cursor
// is a value and keeps no key, so it adds nothing; a callback-style update
// would make its captures escape. The inline record is built in the handle.
func TestScalarOverwriteHeapBudget(t *testing.T) {
	single(t, func(p *pmemcpy.PMEM) error {
		if err := pmemcpy.Store(p, "step", int64(0)); err != nil {
			return err
		}
		v := int64(0)
		got := testing.AllocsPerRun(200, func() {
			v++
			if err := pmemcpy.Store(p, "step", v); err != nil {
				t.Fatal(err)
			}
		})
		if got > 7 {
			return fmt.Errorf("an overwriting Store of a scalar = %v allocations, want at most 7", got)
		}
		return nil
	})
}

// TestScalarLoadHeapBudget is the read side: a Load of a scalar is 5
// allocations, one fewer than when the 21-byte value ref was copied out of the
// hashtable first. The inline record is decoded where it sits, under the id's
// read lock; copying it through Hashtable.Get would be the sixth again, and
// 46 to 112 bytes instead of 21.
func TestScalarLoadHeapBudget(t *testing.T) {
	single(t, func(p *pmemcpy.PMEM) error {
		if err := pmemcpy.Store(p, "step", int64(42)); err != nil {
			return err
		}
		got := testing.AllocsPerRun(200, func() {
			if v, err := pmemcpy.Load[int64](p, "step"); err != nil || v != 42 {
				t.Fatal(v, err)
			}
		})
		if got > 5 {
			return fmt.Errorf("a Load of a scalar = %v allocations, want at most 5", got)
		}
		return nil
	})
}
