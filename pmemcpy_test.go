package pmemcpy_test

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"pmemcpy"
	"pmemcpy/internal/serial"
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

// TestLoadResultsOwnTheirBytes: what a load returns is the caller's — never
// the pool's mapped bytes, and never the handle's read or write scratch, which
// the next op reuses. One result of every kind is taken — a datum, a scalar,
// a string, a block, an asynchronous block, block statistics, and 512 KB
// blocks the four-worker gather scattered — then 64 mixed stores and loads of
// other ids run on the same handle, and every result must still hold what was
// stored. Run under -race it also holds the scatter workers to their own
// decode slots.
func TestLoadResultsOwnTheirBytes(t *testing.T) {
	const big = 64 << 10 // float64s: 512 KB, past the parallel gather's threshold
	n := pmemcpy.NewNode(pmemcpy.DefaultConfig(), 64<<20)
	_, err := pmemcpy.Run(n, 1, func(c *pmemcpy.Comm) error {
		p, err := pmemcpy.Mmap(c, n, "/own.pool", pmemcpy.WithReadParallelism(4), pmemcpy.WithAsync())
		if err != nil {
			return err
		}
		vals := func(seed, n int) []float64 {
			v := make([]float64, n)
			for i := range v {
				v[i] = float64(seed*1000 + i)
			}
			return v
		}
		if err := p.StoreDatum("datum", &serial.Datum{Type: serial.Bytes, Payload: []byte("a datum's own bytes")}); err != nil {
			return err
		}
		if err := pmemcpy.Store(p, "scalar", 2.5); err != nil {
			return err
		}
		if err := pmemcpy.StoreString(p, "string", "a string's own bytes"); err != nil {
			return err
		}
		if err := pmemcpy.StoreSlice(p, "block", vals(1, 32), 32); err != nil {
			return err
		}
		if err := pmemcpy.StoreSlice(p, "big", vals(2, big), big); err != nil {
			return err
		}

		datum, err := p.LoadDatum("datum")
		if err != nil {
			return err
		}
		scalar, err := pmemcpy.Load[float64](p, "scalar")
		if err != nil {
			return err
		}
		str, err := pmemcpy.LoadString(p, "string")
		if err != nil {
			return err
		}
		block := make([]float64, 32)
		if err := pmemcpy.LoadSub(p, "block", block, []uint64{0}, []uint64{32}); err != nil {
			return err
		}
		async := make([]float64, 32)
		if err := pmemcpy.LoadSubAsync(p, "block", async, []uint64{0}, []uint64{32}).Wait(context.Background()); err != nil {
			return err
		}
		mn, mx, err := pmemcpy.MinMax(p, "block")
		if err != nil {
			return err
		}
		hits, err := pmemcpy.FindBlocks(p, "block", 0, 1e9)
		if err != nil || len(hits) != 1 {
			return fmt.Errorf("FindBlocks = %v, %v", hits, err)
		}
		// Several wide loads, so the four workers do overlap in time.
		wide := make([][]float64, 4)
		before := parallelLoads(p)
		for i := range wide {
			wide[i] = make([]float64, big)
			if err := pmemcpy.LoadSub(p, "big", wide[i], []uint64{0}, []uint64{big}); err != nil {
				return err
			}
		}
		if parallelLoads(p) != before+int64(len(wide)) {
			return fmt.Errorf("the 512 KB loads did not take the parallel gather")
		}

		// 64 mixed ops on other ids. The same-length overwrites of "scalar2",
		// "string2" and "datum2" rewrite records in place; the arrays cycle
		// the gather scratch through other block lists and sizes.
		other := make([]float64, big)
		for i := 0; i < 64; i++ {
			var err error
			switch i % 8 {
			case 0:
				err = pmemcpy.Store(p, "scalar2", float64(i))
			case 1:
				_, err = pmemcpy.Load[float64](p, "scalar2")
			case 2:
				err = pmemcpy.StoreString(p, "string2", strings.Repeat("x", 20))
			case 3:
				_, err = pmemcpy.LoadString(p, "string2")
			case 4:
				err = p.StoreDatum("datum2", &serial.Datum{Type: serial.Bytes, Payload: []byte(strings.Repeat("y", 19))})
			case 5:
				if err = pmemcpy.StoreSlice(p, "block2", vals(i, 32), 32); err == nil {
					_, _, err = pmemcpy.MinMax(p, "block2")
				}
			case 6:
				err = pmemcpy.LoadSubAsync(p, "block2", other[:32], []uint64{0}, []uint64{32}).Wait(context.Background())
			case 7:
				if err = pmemcpy.StoreSlice(p, "big2", vals(i, big), big); err == nil {
					err = pmemcpy.LoadSub(p, "big2", other, []uint64{0}, []uint64{big})
				}
			}
			if err != nil {
				return fmt.Errorf("op %d: %w", i, err)
			}
		}

		// Every result still holds what was stored.
		switch {
		case string(datum.Payload) != "a datum's own bytes":
			return fmt.Errorf("LoadDatum's payload is %q", datum.Payload)
		case scalar != 2.5 || str != "a string's own bytes" || mn != 1000 || mx != 1031:
			return fmt.Errorf("a scalar result is %v, %q, %v, %v", scalar, str, mn, mx)
		case !slices.Equal(block, vals(1, 32)) || !slices.Equal(async, vals(1, 32)):
			return errors.New("a block result changed")
		case !slices.Equal(hits[0].Offs, []uint64{0}) || !slices.Equal(hits[0].Counts, []uint64{32}):
			return fmt.Errorf("FindBlocks' result is %+v", hits[0])
		}
		for i := range wide {
			if !slices.Equal(wide[i], vals(2, big)) {
				return fmt.Errorf("parallel gather %d's result changed", i)
			}
		}
		return p.Munmap()
	})
	if err != nil {
		t.Fatal(err)
	}
}

// parallelLoads counts the loads that took the parallel gather.
func parallelLoads(p *pmemcpy.PMEM) int64 {
	var n int64
	for _, m := range p.Metrics().Metrics {
		if m.Name == "pmemcpy_op_total" && strings.HasPrefix(m.Labels[0].Value, "load_") && m.Labels[1].Value == "parallel" {
			n += m.Value
		}
	}
	return n
}

// TestScalarOverwriteHeapBudget pins the Go-heap cost of the per-op path the
// smallkv workload measures: an overwriting Store of a scalar is 1 allocation,
// its payload. It builds its plan and its inline record in the handle, and its
// transaction is a handle on a recycled state; the update cursor is a value
// and keeps no key, so it adds nothing.
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
		if got > 1 {
			return fmt.Errorf("an overwriting Store of a scalar = %v allocations, want at most 1", got)
		}
		return nil
	})
}

// TestScalarLoadHeapBudget is the read side: a Load of a scalar is 1
// allocation. The inline record is decoded where it sits, under the id's read
// lock, straight into its T — the one object.
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
		if got > 1 {
			return fmt.Errorf("a Load of a scalar = %v allocations, want at most 1", got)
		}
		return nil
	})
}

// TestSmallOpHeapBudget pins the Go-heap cost of the other op kinds the
// smallkv workload issues, on its shapes: a 64-byte string and a 32-element
// array stored and loaded as one whole extent. The scalar Store and Load have
// tests of their own above.
//
//   - A StoreString's one object is the string's bytes, a LoadString's the
//     string.
//   - A LoadSub plans, intersects and decodes in the handle's gather scratch,
//     so what it costs does not depend on how many stored blocks the request
//     touches: the rows at block-list lengths 1 and 4 must match, with the
//     index warm, and cold — rebuilt from the records on the first load after
//     a record change — where the index's allocations are per entry, never per
//     block.
func TestSmallOpHeapBudget(t *testing.T) {
	const elems = 32
	str := strings.Repeat("s", 64)
	arr := make([]float64, elems)
	got := make([]float64, elems)
	off, cnt := []uint64{0}, []uint64{elems}
	single(t, func(p *pmemcpy.PMEM) error {
		if err := pmemcpy.StoreString(p, "s", str); err != nil {
			return err
		}
		// "a1" holds one block, "a4" four quarters — a block contains none of
		// its siblings, so all four stay listed; each StoreSub row overwrites
		// a third array so the other two keep their lengths.
		for id, n := range map[string]uint64{"a1": 1, "a4": 4, "w": 1} {
			if err := pmemcpy.Alloc[float64](p, id, elems); err != nil {
				return err
			}
			for i := uint64(0); i < n; i++ {
				q := elems / n
				if err := pmemcpy.StoreSub(p, id, arr[:q], []uint64{i * q}, []uint64{q}); err != nil {
					return err
				}
			}
		}
		load := func(id string) func() {
			return func() {
				if err := pmemcpy.LoadSub(p, id, got, off, cnt); err != nil {
					t.Fatal(err)
				}
			}
		}
		// cold drops id's DRAM index before the load: deleting and re-declaring
		// its dims record is a record change that leaves the block list as is.
		cold := func(id string) func() {
			return func() {
				if _, err := p.Delete(id + pmemcpy.DimsSuffix); err != nil {
					t.Fatal(err)
				}
				if err := pmemcpy.Alloc[float64](p, id, elems); err != nil {
					t.Fatal(err)
				}
				load(id)()
			}
		}
		rows := []struct {
			name string
			max  float64
			op   func()
		}{
			{"StoreString", 1, func() {
				if err := pmemcpy.StoreString(p, "s", str); err != nil {
					t.Fatal(err)
				}
			}},
			{"LoadString", 1, func() {
				if s, err := pmemcpy.LoadString(p, "s"); err != nil || s != str {
					t.Fatal(s, err)
				}
			}},
			{"LoadSub/warm/1", 0, load("a1")},
			{"LoadSub/warm/4", 0, load("a4")},
			{"LoadSub/cold/1", -1, cold("a1")},
			{"LoadSub/cold/4", -1, cold("a4")},
			{"StoreSub", 5, func() {
				if err := pmemcpy.StoreSub(p, "w", arr, off, cnt); err != nil {
					t.Fatal(err)
				}
			}},
		}
		allocs := map[string]float64{}
		for _, r := range rows {
			a := testing.AllocsPerRun(100, r.op)
			allocs[r.name] = a
			t.Logf("%-15s %4.0f allocations", r.name, a)
			if r.max >= 0 && a > r.max {
				t.Errorf("%s = %v allocations, want at most %v", r.name, a, r.max)
			}
		}
		for _, kind := range []string{"warm", "cold"} {
			if a1, a4 := allocs["LoadSub/"+kind+"/1"], allocs["LoadSub/"+kind+"/4"]; a1 != a4 {
				t.Errorf("a %s LoadSub over 1 block = %v allocations, over 4 = %v: want them equal", kind, a1, a4)
			}
		}
		return nil
	})
}
