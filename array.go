package pmemcpy

import (
	"context"
	"fmt"
)

// Typed array handles: the v2 ergonomic surface over the free functions.
// An Array[T] binds a PMEM handle to one array id and its element type once,
// so call sites stop repeating (p, id) pairs and type parameters:
//
//	a, _ := pmemcpy.CreateArray[float64](pm, "T", 1024, 1024)
//	a.StoreSub(block, offs, counts)
//	a.LoadSub(dst, offs, counts)
//
// The free functions (Alloc, StoreSub, LoadSub, ...) remain the primary
// paper-shaped API; Array[T] is sugar over exactly the same operations and
// adds no state beyond the binding.

// Array is a typed handle on one stored array. Zero-cost: it holds only the
// PMEM handle and the id, and every method delegates to the corresponding
// free function.
type Array[T Scalar] struct {
	p  *PMEM
	id string
}

// OpenArray binds a typed handle to array id, which must already have been
// declared (Alloc) with element type T. Returns ErrNotFound if id has no
// dims record and ErrTypeMismatch if it was declared with a different
// element size.
func OpenArray[T Scalar](p *PMEM, id string) (Array[T], error) {
	dt, _, err := p.LoadDims(id)
	if err != nil {
		return Array[T]{}, err
	}
	if want := dtypeOf[T](); dt != want && dt.Size() != want.Size() {
		return Array[T]{}, fmt.Errorf("pmemcpy: array %q holds %v, requested %v: %w",
			id, dt, want, ErrTypeMismatch)
	}
	return Array[T]{p: p, id: id}, nil
}

// CreateArray declares array id with the given global dimensions (Alloc) and
// returns its typed handle.
func CreateArray[T Scalar](p *PMEM, id string, dims ...uint64) (Array[T], error) {
	if err := Alloc[T](p, id, dims...); err != nil {
		return Array[T]{}, err
	}
	return Array[T]{p: p, id: id}, nil
}

// ID returns the array's id.
func (a Array[T]) ID() string { return a.id }

// StoreSub writes the block of data at element offsets offs with shape
// counts — the typed mirror of the free StoreSub, and the canonical name of
// this operation across the v2 surface.
func (a Array[T]) StoreSub(data []T, offs, counts []uint64) error {
	return StoreSub(a.p, a.id, data, offs, counts)
}

// LoadSub fills dst with the block at element offsets offs with shape
// counts — the typed mirror of the free LoadSub, and the canonical name of
// this operation across the v2 surface.
func (a Array[T]) LoadSub(dst []T, offs, counts []uint64) error {
	return LoadSub(a.p, a.id, dst, offs, counts)
}

// StoreSubAsync submits the block store to the handle's async queue and
// returns its Future; data must stay untouched until the Future completes.
// Synchronous (completed Future) unless the handle was opened WithAsync.
func (a Array[T]) StoreSubAsync(data []T, offs, counts []uint64) *Future {
	return StoreSubAsync(a.p, a.id, data, offs, counts)
}

// LoadSubAsync submits the block load; dst is filled when the Future
// completes, observing every earlier same-id submission on this handle.
func (a Array[T]) LoadSubAsync(dst []T, offs, counts []uint64) *Future {
	return LoadSubAsync(a.p, a.id, dst, offs, counts)
}

// Delete removes the array: its dims record and every stored block. It
// reports whether anything existed; deleting an absent array is not an error.
func (a Array[T]) Delete() (bool, error) {
	existedDims, err := a.p.Delete(a.id + DimsSuffix)
	if err != nil {
		return existedDims, err
	}
	existed, err := a.p.Delete(a.id)
	return existed || existedDims, err
}

// Dims returns the array's declared global dimensions.
func (a Array[T]) Dims() ([]uint64, error) {
	return LoadDims(a.p, a.id)
}

// MinMax returns the array's value range across all stored blocks, served
// from per-block characteristics under the BP4 codec.
func (a Array[T]) MinMax() (mn, mx float64, err error) {
	return a.p.MinMax(a.id)
}

// FindBlocks returns the array's stored blocks whose value range intersects
// [lo, hi].
func (a Array[T]) FindBlocks(lo, hi float64) ([]BlockStats, error) {
	return a.p.FindBlocks(a.id, lo, hi)
}

// All reads the whole array and its dimensions (LoadSlice).
func (a Array[T]) All() ([]T, []uint64, error) {
	return LoadSlice[T](a.p, a.id)
}

// Compact reclaims storage shadowed by overwrites of this array. ctx
// cancellation stops the pass between its phases.
func (a Array[T]) Compact(ctx context.Context) (int, error) {
	return a.p.Compact(ctx, a.id)
}

// Verify checks every stored block of this array against its recorded
// checksum, regardless of the handle's verification mode. It returns a
// wrapped ErrCorrupt identifying the first bad block, or nil if the array
// is clean.
func (a Array[T]) Verify() error {
	return a.p.VerifyVar(a.id)
}
