package pmemcpy

import (
	"pmemcpy/internal/bytesview"
	"pmemcpy/internal/core"
)

// Zero-copy read views: the v2 read path that finishes the paper's
// copy-elimination story. LoadSub copies block bytes out of PMEM into a
// caller-owned slice; LoadView instead leases a read-only view directly over
// the stored bytes — for a request served by one stored block under an
// identity codec ("raw"), the data never moves at all. The view stays valid
// until Close: deletes, compactions, and overwrites that would free the
// underlying blocks defer those frees until the view's lease epoch drains
// (DESIGN.md §14). Requests that cannot alias safely — gathers spanning
// blocks, non-identity codecs, checksum-sampled loads — transparently fall
// back to a private copy, so LoadView is always correct and at worst as
// expensive as LoadSub.

// View is a leased, read-only view of one block of array id, returned by
// LoadView and Array.View. Data returns the elements; ZeroCopy reports
// whether they alias stored PMEM bytes directly. Views must be Closed when
// done — an open view pins deferred block frees — and fail fast with
// ErrStaleView after Close or after the handle's Munmap. A View must not be
// copied by value and is not safe for concurrent use by multiple goroutines.
type View[T Scalar] struct {
	bv   *core.BlockView
	data []T
}

// Data returns the view's elements. The slice aliases stored PMEM on
// zero-copy views — do not write through it, and do not retain it past
// Close. It fails with ErrStaleView once the view is closed or the handle
// has been unmapped.
func (v *View[T]) Data() ([]T, error) {
	// The staleness check lives on the underlying BlockView; the typed
	// reinterpretation was validated once at LoadView time.
	if _, err := v.bv.Bytes(); err != nil {
		return nil, err
	}
	return v.data, nil
}

// Len returns the view's element count (valid even after Close).
func (v *View[T]) Len() int { return len(v.data) }

// ZeroCopy reports whether the view aliases stored PMEM bytes directly
// (true) or holds a private copy made by the fallback planner (false).
func (v *View[T]) ZeroCopy() bool { return v.bv.ZeroCopy() }

// Close releases the view and, if it was the last lease pinning them, frees
// deferred blocks. Idempotent.
func (v *View[T]) Close() error { return v.bv.Close() }

// LoadView returns a leased, read-only view of the block (offs, counts) of
// array id — LoadSub without the copy whenever the request is served by one
// stored block under an identity codec. The view is valid until Close; see
// View for the aliasing contract. Requests that cannot alias safely fall
// back to a private copy transparently (check ZeroCopy when the distinction
// matters; the pmemcpy_view_zero_copy_total / pmemcpy_view_fallback_total
// counters report the ratio per handle).
func LoadView[T Scalar](p *PMEM, id string, offs, counts []uint64) (*View[T], error) {
	bv, err := p.LoadBlockViewAs(id, dtypeOf[T](), offs, counts)
	if err != nil {
		return nil, err
	}
	raw, err := bv.Bytes()
	if err != nil {
		bv.Close()
		return nil, err
	}
	data, ok := bytesview.TryOf[T](raw)
	if !ok {
		// Stored block bytes are 8-byte aligned by the allocator, so this is
		// only reachable for a zero-copy view at an element offset that
		// misaligns a wide T within the block. Copy out rather than fail: the
		// view degrades to fallback semantics.
		bv.Close()
		data = bytesview.OfCopy[T](append([]byte(nil), raw...))
		cp, err := copiedView(p, id, data)
		if err != nil {
			return nil, err
		}
		return cp, nil
	}
	return &View[T]{bv: bv, data: data}, nil
}

// copiedView wraps already-copied elements in a fallback view so misaligned
// zero-copy hits still return a working (non-leased) view.
func copiedView[T Scalar](p *PMEM, id string, data []T) (*View[T], error) {
	bv := p.NewFallbackView(id, bytesview.Bytes(data))
	return &View[T]{bv: bv, data: data}, nil
}

// View returns a leased, read-only view of the block (offs, counts) of this
// array — the typed-handle mirror of LoadView.
func (a Array[T]) View(offs, counts []uint64) (*View[T], error) {
	return LoadView[T](a.p, a.id, offs, counts)
}
