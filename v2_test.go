package pmemcpy_test

import (
	"errors"
	"fmt"
	"testing"

	"pmemcpy"
)

// TestArrayRoundTrip exercises the typed-handle surface end to end against
// the free functions it wraps.
func TestArrayRoundTrip(t *testing.T) {
	single(t, func(p *pmemcpy.PMEM) error {
		a, err := pmemcpy.CreateArray[float64](p, "T", 8, 8)
		if err != nil {
			return err
		}
		if a.ID() != "T" {
			return fmt.Errorf("ID = %q", a.ID())
		}
		data := make([]float64, 64)
		for i := range data {
			data[i] = float64(i)
		}
		if err := a.StoreSub(data, []uint64{0, 0}, []uint64{8, 8}); err != nil {
			return err
		}
		dims, err := a.Dims()
		if err != nil || len(dims) != 2 || dims[0] != 8 || dims[1] != 8 {
			return fmt.Errorf("Dims = %v, %v", dims, err)
		}
		// A 2x2 corner through the typed handle.
		got := make([]float64, 4)
		if err := a.LoadSub(got, []uint64{6, 6}, []uint64{2, 2}); err != nil {
			return err
		}
		want := []float64{54, 55, 62, 63}
		for i := range want {
			if got[i] != want[i] {
				return fmt.Errorf("Load corner = %v, want %v", got, want)
			}
		}
		mn, mx, err := a.MinMax()
		if err != nil || mn != 0 || mx != 63 {
			return fmt.Errorf("MinMax = %v, %v, %v", mn, mx, err)
		}
		all, dims2, err := a.All()
		if err != nil || len(all) != 64 || dims2[0] != 8 {
			return fmt.Errorf("All: len=%d dims=%v err=%v", len(all), dims2, err)
		}
		// The same data is visible through the free functions — Array is a
		// binding, not a separate namespace.
		free := make([]float64, 64)
		if err := pmemcpy.LoadSub(p, "T", free, []uint64{0, 0}, []uint64{8, 8}); err != nil {
			return err
		}
		if free[63] != 63 {
			return fmt.Errorf("free-function read = %v", free[63])
		}
		return nil
	})
}

// TestOpenArraySentinels pins OpenArray's error taxonomy.
func TestOpenArraySentinels(t *testing.T) {
	single(t, func(p *pmemcpy.PMEM) error {
		if _, err := pmemcpy.OpenArray[float64](p, "ghost"); !errors.Is(err, pmemcpy.ErrNotFound) {
			t.Errorf("OpenArray(missing): err = %v, want ErrNotFound", err)
		}
		if err := pmemcpy.Alloc[float64](p, "A", 16); err != nil {
			return err
		}
		if _, err := pmemcpy.OpenArray[float64](p, "A"); err != nil {
			t.Errorf("OpenArray(declared): err = %v", err)
		}
		if _, err := pmemcpy.OpenArray[float32](p, "A"); !errors.Is(err, pmemcpy.ErrTypeMismatch) {
			t.Errorf("OpenArray(wrong type): err = %v, want ErrTypeMismatch", err)
		}
		return nil
	})
}

// TestSentinelsAcrossAPI asserts that errors surfaced by the historical free
// functions dispatch with errors.Is against the exported sentinels.
func TestSentinelsAcrossAPI(t *testing.T) {
	single(t, func(p *pmemcpy.PMEM) error {
		// Not found: scalars, dims, block reads.
		if _, err := pmemcpy.Load[int64](p, "ghost"); !errors.Is(err, pmemcpy.ErrNotFound) {
			t.Errorf("Load(missing): err = %v, want ErrNotFound", err)
		}
		if _, err := pmemcpy.LoadDims(p, "ghost"); !errors.Is(err, pmemcpy.ErrNotFound) {
			t.Errorf("LoadDims(missing): err = %v, want ErrNotFound", err)
		}

		// Type mismatch: a string is not an int64, a scalar is not a struct.
		if err := pmemcpy.StoreString(p, "s", "hello"); err != nil {
			return err
		}
		if _, err := pmemcpy.Load[int64](p, "s"); !errors.Is(err, pmemcpy.ErrTypeMismatch) {
			t.Errorf("Load(string id): err = %v, want ErrTypeMismatch", err)
		}
		if _, err := pmemcpy.LoadString(p, "s"); err != nil {
			return err
		}
		if err := pmemcpy.Store(p, "n", int64(1)); err != nil {
			return err
		}
		if _, err := pmemcpy.LoadString(p, "n"); !errors.Is(err, pmemcpy.ErrTypeMismatch) {
			t.Errorf("LoadString(scalar id): err = %v, want ErrTypeMismatch", err)
		}
		var out struct{ X int64 }
		if err := pmemcpy.LoadStruct(p, "n", &out); !errors.Is(err, pmemcpy.ErrTypeMismatch) {
			t.Errorf("LoadStruct(scalar id): err = %v, want ErrTypeMismatch", err)
		}

		// Out of bounds: selections past the declared extent.
		if err := pmemcpy.StoreSlice(p, "arr", []float64{1, 2, 3, 4}, 4); err != nil {
			return err
		}
		dst := make([]float64, 4)
		if err := pmemcpy.LoadSub(p, "arr", dst, []uint64{2}, []uint64{3}); !errors.Is(err, pmemcpy.ErrOutOfBounds) {
			t.Errorf("LoadSub(past extent): err = %v, want ErrOutOfBounds", err)
		}
		if err := pmemcpy.StoreSub(p, "arr", dst, []uint64{3}, []uint64{2}); !errors.Is(err, pmemcpy.ErrOutOfBounds) {
			t.Errorf("StoreSub(past extent): err = %v, want ErrOutOfBounds", err)
		}
		return nil
	})
}

// TestMmapFunctionalOptions checks the v2 Mmap calling conventions compile
// and agree: no options, and functional options composing in argument order.
// (The v1 pass-a-*Options shim was removed; functional options are the only
// configuration path.)
func TestMmapFunctionalOptions(t *testing.T) {
	n := newNode()
	_, err := pmemcpy.Run(n, 1, func(c *pmemcpy.Comm) error {
		// Functional options. Pool sizes are pinned so four pools fit the
		// test device.
		p, err := pmemcpy.Mmap(c, n, "/fo.pool", pmemcpy.WithPoolSize(8<<20),
			pmemcpy.WithCodec("raw"), pmemcpy.WithReadParallelism(4))
		if err != nil {
			return err
		}
		if p.CodecName() != "raw" {
			return fmt.Errorf("CodecName = %q, want raw", p.CodecName())
		}
		if err := p.Munmap(); err != nil {
			return err
		}
		// Untouched fields keep their defaults.
		p, err = pmemcpy.Mmap(c, n, "/fo2.pool", pmemcpy.WithPoolSize(8<<20))
		if err != nil {
			return err
		}
		if p.CodecName() != "bp4" {
			return fmt.Errorf("default CodecName = %q, want bp4", p.CodecName())
		}
		if err := p.Munmap(); err != nil {
			return err
		}
		// Options apply in argument order: later options override earlier.
		p, err = pmemcpy.Mmap(c, n, "/fo4.pool", pmemcpy.WithCodec("bp4"),
			pmemcpy.WithCodec("flat"), pmemcpy.WithPoolSize(8<<20), pmemcpy.WithParallelism(2))
		if err != nil {
			return err
		}
		if p.CodecName() != "flat" {
			return fmt.Errorf("composed CodecName = %q, want flat", p.CodecName())
		}
		return p.Munmap()
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestViewLifecycle exercises the public zero-copy view surface end to end:
// LoadView and Array.View alias stored bytes under an identity codec, survive
// a delete of the variable until closed, and fail fast once stale.
func TestViewLifecycle(t *testing.T) {
	n := newNode()
	_, err := pmemcpy.Run(n, 1, func(c *pmemcpy.Comm) error {
		p, err := pmemcpy.Mmap(c, n, "/view.pool", pmemcpy.WithCodec("raw"))
		if err != nil {
			return err
		}
		a, err := pmemcpy.CreateArray[float64](p, "T", 256)
		if err != nil {
			return err
		}
		data := make([]float64, 256)
		for i := range data {
			data[i] = float64(i)
		}
		if err := a.StoreSub(data, []uint64{0}, []uint64{256}); err != nil {
			return err
		}

		v, err := pmemcpy.LoadView[float64](p, "T", []uint64{0}, []uint64{256})
		if err != nil {
			return err
		}
		if !v.ZeroCopy() {
			return fmt.Errorf("LoadView under raw codec: ZeroCopy = false")
		}
		got, err := v.Data()
		if err != nil {
			return err
		}
		if len(got) != 256 || got[100] != 100 {
			return fmt.Errorf("view data = len %d, [100]=%v", len(got), got[100])
		}

		// Deleting the variable with the lease open defers the block free:
		// the view still reads the old data.
		if _, err := a.Delete(); err != nil {
			return err
		}
		if got, err = v.Data(); err != nil || got[100] != 100 {
			return fmt.Errorf("view after delete: data[100]=%v err=%v", got[100], err)
		}
		if err := v.Close(); err != nil {
			return err
		}
		if _, err := v.Data(); !errors.Is(err, pmemcpy.ErrStaleView) {
			return fmt.Errorf("Data after Close = %v, want ErrStaleView", err)
		}
		if v.Len() != 256 {
			return fmt.Errorf("Len after Close = %d, want 256 (metadata stays)", v.Len())
		}

		// The typed-handle mirror: a sub-range view through Array.View.
		b, err := pmemcpy.CreateArray[int32](p, "U", 64)
		if err != nil {
			return err
		}
		ints := make([]int32, 64)
		for i := range ints {
			ints[i] = int32(i * 3)
		}
		if err := b.StoreSub(ints, []uint64{0}, []uint64{64}); err != nil {
			return err
		}
		sub, err := b.View([]uint64{16}, []uint64{8})
		if err != nil {
			return err
		}
		defer sub.Close()
		got32, err := sub.Data()
		if err != nil {
			return err
		}
		if sub.Len() != 8 || got32[0] != 48 || got32[7] != 69 {
			return fmt.Errorf("Array.View sub-range = %v", got32)
		}
		return p.Munmap()
	})
	if err != nil {
		t.Fatal(err)
	}
}
