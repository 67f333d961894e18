package pmemcpy_test

// Error-surface conformance: every public API path that fails for one of the
// documented reasons must wrap the matching sentinel, so callers dispatch
// with errors.Is instead of matching message text. The table drives the v1
// free functions, the v2 Array[T] handles, both layouts, and the parallel
// write/gather engines through representative failures of each class.

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"pmemcpy"
	"pmemcpy/internal/checksum"
	"pmemcpy/internal/pmdk"
)

func TestErrorConformance(t *testing.T) {
	const bigElems = 96 * 1024 // 768 KB of float64: over the parallel threshold

	cases := []struct {
		name  string
		pools int // node devices and namespace members (0/1: single pool)
		opts  []pmemcpy.MmapOption
		fn    func(p *pmemcpy.PMEM, n *pmemcpy.Node) error
		want  error
	}{
		{
			name: "Load missing id",
			fn: func(p *pmemcpy.PMEM, _ *pmemcpy.Node) error {
				_, err := pmemcpy.Load[int64](p, "missing")
				return err
			},
			want: pmemcpy.ErrNotFound,
		},
		{
			name: "LoadString missing id",
			fn: func(p *pmemcpy.PMEM, _ *pmemcpy.Node) error {
				_, err := pmemcpy.LoadString(p, "missing")
				return err
			},
			want: pmemcpy.ErrNotFound,
		},
		{
			name: "LoadDims missing id",
			fn: func(p *pmemcpy.PMEM, _ *pmemcpy.Node) error {
				_, err := pmemcpy.LoadDims(p, "missing")
				return err
			},
			want: pmemcpy.ErrNotFound,
		},
		{
			name: "LoadSub missing array",
			fn: func(p *pmemcpy.PMEM, _ *pmemcpy.Node) error {
				dst := make([]float64, 4)
				return pmemcpy.LoadSub(p, "missing", dst, []uint64{0}, []uint64{4})
			},
			want: pmemcpy.ErrNotFound,
		},
		{
			name: "LoadSub coverage gap",
			fn: func(p *pmemcpy.PMEM, _ *pmemcpy.Node) error {
				if err := pmemcpy.Alloc[float64](p, "gap", 8); err != nil {
					return fmt.Errorf("setup: %v", err)
				}
				if err := pmemcpy.StoreSub(p, "gap", make([]float64, 4), []uint64{0}, []uint64{4}); err != nil {
					return fmt.Errorf("setup: %v", err)
				}
				dst := make([]float64, 8)
				return pmemcpy.LoadSub(p, "gap", dst, []uint64{0}, []uint64{8})
			},
			want: pmemcpy.ErrNotFound,
		},
		{
			name: "OpenArray missing id",
			fn: func(p *pmemcpy.PMEM, _ *pmemcpy.Node) error {
				_, err := pmemcpy.OpenArray[float64](p, "missing")
				return err
			},
			want: pmemcpy.ErrNotFound,
		},
		{
			name: "hierarchy Load missing id",
			opts: []pmemcpy.MmapOption{pmemcpy.WithLayout(pmemcpy.LayoutHierarchy)},
			fn: func(p *pmemcpy.PMEM, _ *pmemcpy.Node) error {
				_, err := pmemcpy.Load[int64](p, "missing")
				return err
			},
			want: pmemcpy.ErrNotFound,
		},
		{
			name: "hierarchy LoadSub missing blocks",
			opts: []pmemcpy.MmapOption{pmemcpy.WithLayout(pmemcpy.LayoutHierarchy)},
			fn: func(p *pmemcpy.PMEM, _ *pmemcpy.Node) error {
				if err := pmemcpy.Alloc[float64](p, "empty", 8); err != nil {
					return fmt.Errorf("setup: %v", err)
				}
				dst := make([]float64, 8)
				return pmemcpy.LoadSub(p, "empty", dst, []uint64{0}, []uint64{8})
			},
			want: pmemcpy.ErrNotFound,
		},
		{
			name: "Load wrong element type",
			fn: func(p *pmemcpy.PMEM, _ *pmemcpy.Node) error {
				if err := pmemcpy.Store(p, "scalar", int64(7)); err != nil {
					return fmt.Errorf("setup: %v", err)
				}
				_, err := pmemcpy.Load[float32](p, "scalar")
				return err
			},
			want: pmemcpy.ErrTypeMismatch,
		},
		{
			name: "LoadString on scalar",
			fn: func(p *pmemcpy.PMEM, _ *pmemcpy.Node) error {
				if err := pmemcpy.Store(p, "scalar", int64(7)); err != nil {
					return fmt.Errorf("setup: %v", err)
				}
				_, err := pmemcpy.LoadString(p, "scalar")
				return err
			},
			want: pmemcpy.ErrTypeMismatch,
		},
		{
			name: "LoadStruct on scalar",
			fn: func(p *pmemcpy.PMEM, _ *pmemcpy.Node) error {
				if err := pmemcpy.Store(p, "scalar", int64(7)); err != nil {
					return fmt.Errorf("setup: %v", err)
				}
				var out struct{ X int64 }
				return pmemcpy.LoadStruct(p, "scalar", &out)
			},
			want: pmemcpy.ErrTypeMismatch,
		},
		{
			name: "OpenArray wrong element type",
			fn: func(p *pmemcpy.PMEM, _ *pmemcpy.Node) error {
				if err := pmemcpy.Alloc[float64](p, "arr", 16); err != nil {
					return fmt.Errorf("setup: %v", err)
				}
				_, err := pmemcpy.OpenArray[float32](p, "arr")
				return err
			},
			want: pmemcpy.ErrTypeMismatch,
		},
		{
			name: "Alloc conflicting dims",
			fn: func(p *pmemcpy.PMEM, _ *pmemcpy.Node) error {
				if err := pmemcpy.Alloc[float64](p, "arr", 16); err != nil {
					return fmt.Errorf("setup: %v", err)
				}
				return pmemcpy.Alloc[float64](p, "arr", 32)
			},
			want: pmemcpy.ErrTypeMismatch,
		},
		{
			name: "Alloc without dims",
			fn: func(p *pmemcpy.PMEM, _ *pmemcpy.Node) error {
				return pmemcpy.Alloc[float64](p, "arr")
			},
			want: pmemcpy.ErrOutOfBounds,
		},
		{
			name: "StoreSub outside extent",
			fn: func(p *pmemcpy.PMEM, _ *pmemcpy.Node) error {
				if err := pmemcpy.Alloc[float64](p, "arr", 16); err != nil {
					return fmt.Errorf("setup: %v", err)
				}
				return pmemcpy.StoreSub(p, "arr", make([]float64, 8), []uint64{12}, []uint64{8})
			},
			want: pmemcpy.ErrOutOfBounds,
		},
		{
			name: "StoreSub rank mismatch",
			fn: func(p *pmemcpy.PMEM, _ *pmemcpy.Node) error {
				if err := pmemcpy.Alloc[float64](p, "arr", 16); err != nil {
					return fmt.Errorf("setup: %v", err)
				}
				return pmemcpy.StoreSub(p, "arr", make([]float64, 4), []uint64{0, 0}, []uint64{2, 2})
			},
			want: pmemcpy.ErrOutOfBounds,
		},
		{
			name: "Array LoadSub outside extent",
			fn: func(p *pmemcpy.PMEM, _ *pmemcpy.Node) error {
				a, err := pmemcpy.CreateArray[float64](p, "arr", 16)
				if err != nil {
					return fmt.Errorf("setup: %v", err)
				}
				return a.LoadSub(make([]float64, 8), []uint64{12}, []uint64{8})
			},
			want: pmemcpy.ErrOutOfBounds,
		},
		{
			name: "Store media failure",
			fn: func(p *pmemcpy.PMEM, n *pmemcpy.Node) error {
				// 4 consecutive transient failures exceed the device's retry
				// budget, escalating the next persist to an ErrMedia.
				n.Device.InjectTransient(0, 4)
				defer n.Device.DisarmInjection()
				return pmemcpy.Store(p, "scalar", int64(7))
			},
			want: pmemcpy.ErrMedia,
		},
		{
			name: "parallel StoreSub outside extent",
			opts: []pmemcpy.MmapOption{pmemcpy.WithParallelism(4)},
			fn: func(p *pmemcpy.PMEM, _ *pmemcpy.Node) error {
				if err := pmemcpy.Alloc[float64](p, "big", bigElems); err != nil {
					return fmt.Errorf("setup: %v", err)
				}
				return pmemcpy.StoreSub(p, "big", make([]float64, bigElems), []uint64{1}, []uint64{bigElems})
			},
			want: pmemcpy.ErrOutOfBounds,
		},
		{
			name: "parallel StoreSub media failure",
			opts: []pmemcpy.MmapOption{pmemcpy.WithParallelism(4)},
			fn: func(p *pmemcpy.PMEM, n *pmemcpy.Node) error {
				if err := pmemcpy.Alloc[float64](p, "big", bigElems); err != nil {
					return fmt.Errorf("setup: %v", err)
				}
				n.Device.InjectTransient(0, 4)
				defer n.Device.DisarmInjection()
				return pmemcpy.StoreSub(p, "big", make([]float64, bigElems), []uint64{0}, []uint64{bigElems})
			},
			want: pmemcpy.ErrMedia,
		},
		{
			name: "async StoreSub outside extent",
			opts: []pmemcpy.MmapOption{pmemcpy.WithAsync()},
			fn: func(p *pmemcpy.PMEM, _ *pmemcpy.Node) error {
				if err := pmemcpy.Alloc[float64](p, "arr", 16); err != nil {
					return fmt.Errorf("setup: %v", err)
				}
				fut := pmemcpy.StoreSubAsync(p, "arr", make([]float64, 8), []uint64{12}, []uint64{8})
				return fut.Wait(context.Background())
			},
			want: pmemcpy.ErrOutOfBounds,
		},
		{
			name: "async Store missing Alloc",
			opts: []pmemcpy.MmapOption{pmemcpy.WithAsync()},
			fn: func(p *pmemcpy.PMEM, _ *pmemcpy.Node) error {
				fut := pmemcpy.StoreSubAsync(p, "missing", make([]float64, 4), []uint64{0}, []uint64{4})
				return fut.Wait(context.Background())
			},
			want: pmemcpy.ErrNotFound,
		},
		{
			name: "async Load missing id",
			opts: []pmemcpy.MmapOption{pmemcpy.WithAsync()},
			fn: func(p *pmemcpy.PMEM, _ *pmemcpy.Node) error {
				dst := make([]float64, 4)
				fut := pmemcpy.LoadSubAsync(p, "missing", dst, []uint64{0}, []uint64{4})
				return fut.Wait(context.Background())
			},
			want: pmemcpy.ErrNotFound,
		},
		{
			name: "async Store media failure",
			opts: []pmemcpy.MmapOption{pmemcpy.WithAsync()},
			fn: func(p *pmemcpy.PMEM, n *pmemcpy.Node) error {
				n.Device.InjectTransient(0, 4)
				defer n.Device.DisarmInjection()
				fut := pmemcpy.StoreAsync(p, "scalar", int64(7))
				return fut.Wait(context.Background())
			},
			want: pmemcpy.ErrMedia,
		},
		{
			name: "async Load corrupt block",
			opts: []pmemcpy.MmapOption{
				pmemcpy.WithAsync(),
				pmemcpy.WithVerifyReads(pmemcpy.VerifyFull),
			},
			fn: func(p *pmemcpy.PMEM, _ *pmemcpy.Node) error {
				if err := pmemcpy.Alloc[float64](p, "arr", 16); err != nil {
					return fmt.Errorf("setup: %v", err)
				}
				if err := pmemcpy.StoreSub(p, "arr", make([]float64, 16), []uint64{0}, []uint64{16}); err != nil {
					return fmt.Errorf("setup: %v", err)
				}
				if _, _, err := p.InjectCorruption("arr", 0, 8, 1, 0x04); err != nil {
					return fmt.Errorf("setup: %v", err)
				}
				dst := make([]float64, 16)
				fut := pmemcpy.LoadSubAsync(p, "arr", dst, []uint64{0}, []uint64{16})
				return fut.Wait(context.Background())
			},
			want: pmemcpy.ErrCorrupt,
		},
		{
			// The sentinel must survive pool routing: a miss is a miss no
			// matter which member the id hashes to.
			name:  "multi-pool Load missing id",
			pools: 4,
			fn: func(p *pmemcpy.PMEM, _ *pmemcpy.Node) error {
				_, err := pmemcpy.Load[int64](p, "missing")
				return err
			},
			want: pmemcpy.ErrNotFound,
		},
		{
			name:  "multi-pool parallel StoreSub outside extent",
			pools: 4,
			opts:  []pmemcpy.MmapOption{pmemcpy.WithParallelism(4)},
			fn: func(p *pmemcpy.PMEM, _ *pmemcpy.Node) error {
				if err := pmemcpy.Alloc[float64](p, "big", bigElems); err != nil {
					return fmt.Errorf("setup: %v", err)
				}
				return pmemcpy.StoreSub(p, "big", make([]float64, bigElems), []uint64{1}, []uint64{bigElems})
			},
			want: pmemcpy.ErrOutOfBounds,
		},
		{
			name:  "multi-pool Store media failure",
			pools: 4,
			fn: func(p *pmemcpy.PMEM, n *pmemcpy.Node) error {
				// Arm every member device: the id routes to one pool, and the
				// escalated persist failure must surface from whichever member
				// it lands on.
				for i := 0; i < 4; i++ {
					n.DeviceAt(i).InjectTransient(0, 4)
					defer n.DeviceAt(i).DisarmInjection()
				}
				return pmemcpy.Store(p, "scalar", int64(7))
			},
			want: pmemcpy.ErrMedia,
		},
		{
			name:  "multi-pool async Store missing Alloc",
			pools: 4,
			opts:  []pmemcpy.MmapOption{pmemcpy.WithAsync()},
			fn: func(p *pmemcpy.PMEM, _ *pmemcpy.Node) error {
				fut := pmemcpy.StoreSubAsync(p, "missing", make([]float64, 4), []uint64{0}, []uint64{4})
				return fut.Wait(context.Background())
			},
			want: pmemcpy.ErrNotFound,
		},
		{
			// Corruption on a striped block must cross both the pool routing
			// and the async completion boundary intact.
			name:  "multi-pool async Load corrupt block",
			pools: 4,
			opts: []pmemcpy.MmapOption{
				pmemcpy.WithAsync(),
				pmemcpy.WithVerifyReads(pmemcpy.VerifyFull),
			},
			fn: func(p *pmemcpy.PMEM, _ *pmemcpy.Node) error {
				if err := pmemcpy.Alloc[float64](p, "arr", 16); err != nil {
					return fmt.Errorf("setup: %v", err)
				}
				if err := pmemcpy.StoreSub(p, "arr", make([]float64, 16), []uint64{0}, []uint64{16}); err != nil {
					return fmt.Errorf("setup: %v", err)
				}
				if _, _, err := p.InjectCorruption("arr", 0, 8, 1, 0x04); err != nil {
					return fmt.Errorf("setup: %v", err)
				}
				dst := make([]float64, 16)
				fut := pmemcpy.LoadSubAsync(p, "arr", dst, []uint64{0}, []uint64{16})
				return fut.Wait(context.Background())
			},
			want: pmemcpy.ErrCorrupt,
		},
		{
			name: "LoadView missing id",
			fn: func(p *pmemcpy.PMEM, _ *pmemcpy.Node) error {
				v, err := pmemcpy.LoadView[float64](p, "missing", []uint64{0}, []uint64{4})
				if v != nil {
					v.Close()
				}
				return err
			},
			want: pmemcpy.ErrNotFound,
		},
		{
			name: "LoadView wrong element type",
			fn: func(p *pmemcpy.PMEM, _ *pmemcpy.Node) error {
				if err := pmemcpy.Alloc[float64](p, "arr", 16); err != nil {
					return fmt.Errorf("setup: %v", err)
				}
				v, err := pmemcpy.LoadView[float32](p, "arr", []uint64{0}, []uint64{16})
				if v != nil {
					v.Close()
				}
				return err
			},
			want: pmemcpy.ErrTypeMismatch,
		},
		{
			name: "View data after Close",
			fn: func(p *pmemcpy.PMEM, _ *pmemcpy.Node) error {
				if err := pmemcpy.Alloc[float64](p, "arr", 16); err != nil {
					return fmt.Errorf("setup: %v", err)
				}
				if err := pmemcpy.StoreSub(p, "arr", make([]float64, 16), []uint64{0}, []uint64{16}); err != nil {
					return fmt.Errorf("setup: %v", err)
				}
				v, err := pmemcpy.LoadView[float64](p, "arr", []uint64{0}, []uint64{16})
				if err != nil {
					return fmt.Errorf("setup: %v", err)
				}
				if err := v.Close(); err != nil {
					return fmt.Errorf("setup: %v", err)
				}
				_, err = v.Data()
				return err
			},
			want: pmemcpy.ErrStaleView,
		},
		{
			// The staleness sentinel must survive pool routing like every
			// other error class.
			name:  "multi-pool View data after Close",
			pools: 4,
			fn: func(p *pmemcpy.PMEM, _ *pmemcpy.Node) error {
				if err := pmemcpy.Alloc[float64](p, "arr", 16); err != nil {
					return fmt.Errorf("setup: %v", err)
				}
				if err := pmemcpy.StoreSub(p, "arr", make([]float64, 16), []uint64{0}, []uint64{16}); err != nil {
					return fmt.Errorf("setup: %v", err)
				}
				v, err := pmemcpy.LoadView[float64](p, "arr", []uint64{0}, []uint64{16})
				if err != nil {
					return fmt.Errorf("setup: %v", err)
				}
				if err := v.Close(); err != nil {
					return fmt.Errorf("setup: %v", err)
				}
				_, err = v.Data()
				return err
			},
			want: pmemcpy.ErrStaleView,
		},
		{
			// ...and the async boundary: a view opened against a batching
			// handle still fails fast once closed.
			name: "async View data after Close",
			opts: []pmemcpy.MmapOption{pmemcpy.WithAsync()},
			fn: func(p *pmemcpy.PMEM, _ *pmemcpy.Node) error {
				if err := pmemcpy.Alloc[float64](p, "arr", 16); err != nil {
					return fmt.Errorf("setup: %v", err)
				}
				fut := pmemcpy.StoreSubAsync(p, "arr", make([]float64, 16), []uint64{0}, []uint64{16})
				v, err := pmemcpy.LoadView[float64](p, "arr", []uint64{0}, []uint64{16})
				if err != nil {
					return fmt.Errorf("setup: %v", err)
				}
				if err := fut.Wait(context.Background()); err != nil {
					return fmt.Errorf("setup: %v", err)
				}
				if err := v.Close(); err != nil {
					return fmt.Errorf("setup: %v", err)
				}
				_, err = v.Data()
				return err
			},
			want: pmemcpy.ErrStaleView,
		},
		{
			name: "parallel gather coverage gap",
			opts: []pmemcpy.MmapOption{pmemcpy.WithReadParallelism(4)},
			fn: func(p *pmemcpy.PMEM, _ *pmemcpy.Node) error {
				// Half the extent is stored (384 KB, over the parallel
				// threshold); reading the full extent leaves a gap.
				if err := pmemcpy.Alloc[float64](p, "big", bigElems); err != nil {
					return fmt.Errorf("setup: %v", err)
				}
				if err := pmemcpy.StoreSub(p, "big", make([]float64, bigElems/2), []uint64{0}, []uint64{bigElems / 2}); err != nil {
					return fmt.Errorf("setup: %v", err)
				}
				dst := make([]float64, bigElems)
				return pmemcpy.LoadSub(p, "big", dst, []uint64{0}, []uint64{bigElems})
			},
			want: pmemcpy.ErrNotFound,
		},
		{
			// A namespace whose header no longer sums: the pool layer's
			// corruption class surfaces as the public one.
			name: "Mmap damaged pool header",
			fn: func(p *pmemcpy.PMEM, n *pmemcpy.Node) error {
				return remapDamaged(p, n, func(hdr []byte) { hdr[24] ^= 0x08 })
			},
			want: pmemcpy.ErrCorrupt,
		},
		{
			// A pool of an earlier format version (4: whole values behind value
			// refs only) is intact, just not readable: no public sentinel
			// matches, and the text says which version was found and which is
			// read.
			name: "Mmap format-4 pool",
			fn: func(p *pmemcpy.PMEM, n *pmemcpy.Node) error {
				err := remapDamaged(p, n, func(hdr []byte) {
					hdr[8] = 4
					binary.LittleEndian.PutUint64(hdr[88:], uint64(checksum.Sum(hdr[:88])))
				})
				for _, pub := range []error{pmemcpy.ErrCorrupt, pmemcpy.ErrNotFound, pmemcpy.ErrTypeMismatch,
					pmemcpy.ErrOutOfBounds, pmemcpy.ErrMedia, pmemcpy.ErrStaleView} {
					if errors.Is(err, pub) {
						return fmt.Errorf("error %q wraps the public %v", err, pub)
					}
				}
				if err != nil && !strings.Contains(err.Error(), "format version 4, this build reads only version 8") {
					return fmt.Errorf("error %q does not name both versions", err)
				}
				return err
			},
			want: pmdk.ErrBadPool,
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var nopts []pmemcpy.NodeOption
			if tc.pools > 1 {
				nopts = append(nopts, pmemcpy.WithPMEMPools(tc.pools))
			}
			n := pmemcpy.NewNode(pmemcpy.DefaultConfig(), 64<<20, nopts...)
			_, err := pmemcpy.Run(n, 1, func(c *pmemcpy.Comm) error {
				p, err := pmemcpy.Mmap(c, n, "/conf.pool", tc.opts...)
				if err != nil {
					return fmt.Errorf("mmap: %v", err)
				}
				got := tc.fn(p, n)
				if got == nil {
					return fmt.Errorf("operation succeeded, want error wrapping %v", tc.want)
				}
				if !errors.Is(got, tc.want) {
					return fmt.Errorf("error %q does not wrap %v", got, tc.want)
				}
				return p.Munmap()
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// remapDamaged stores a value, unmaps p, applies damage to the 256-byte header
// of the namespace's pool file (offsets: internal/pmdk/pool.go) and returns
// what a second Mmap of it says.
func remapDamaged(p *pmemcpy.PMEM, n *pmemcpy.Node, damage func(hdr []byte)) error {
	if err := pmemcpy.Store(p, "x", int64(1)); err != nil {
		return fmt.Errorf("setup: %v", err)
	}
	if err := p.Munmap(); err != nil {
		return fmt.Errorf("setup: %v", err)
	}
	clk := p.Comm().Clock()
	f, err := n.FS.Open(clk, "/conf.pool")
	if err != nil {
		return fmt.Errorf("setup: %v", err)
	}
	m, err := f.Mmap(clk, false)
	if err != nil {
		return fmt.Errorf("setup: %v", err)
	}
	hdr, err := m.Slice(0, 256)
	if err != nil {
		return fmt.Errorf("setup: %v", err)
	}
	damage(hdr)
	_, err = pmemcpy.Mmap(p.Comm(), n, "/conf.pool")
	return err
}

// TestDeleteAbsent pins that deleting an absent id reports existed=false
// without an error — absence is an answer, not a failure.
func TestDeleteAbsent(t *testing.T) {
	n := pmemcpy.NewNode(pmemcpy.DefaultConfig(), 64<<20)
	_, err := pmemcpy.Run(n, 1, func(c *pmemcpy.Comm) error {
		p, err := pmemcpy.Mmap(c, n, "/del.pool")
		if err != nil {
			return err
		}
		if existed, err := p.Delete("missing"); err != nil || existed {
			return fmt.Errorf("Delete(missing) = (%v, %v), want (false, nil)", existed, err)
		}
		a, err := pmemcpy.CreateArray[float64](p, "arr", 16)
		if err != nil {
			return err
		}
		if err := a.StoreSub(make([]float64, 16), []uint64{0}, []uint64{16}); err != nil {
			return err
		}
		if existed, err := a.Delete(); err != nil || !existed {
			return fmt.Errorf("Array.Delete = (%v, %v), want (true, nil)", existed, err)
		}
		if _, err := pmemcpy.LoadDims(p, "arr"); !errors.Is(err, pmemcpy.ErrNotFound) {
			return fmt.Errorf("LoadDims after delete = %v, want ErrNotFound", err)
		}
		return p.Munmap()
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestHandleUsableAfterMediaErrorAtAnyPersist is the "usable handle after any
// returned error" contract at its sharpest: an overwriting store is failed at
// each of its persists in turn — log entries, payload, commit flushes, the
// flush that commits — and every time the error wraps ErrMedia, the id reads
// its old value, and the same handle goes on to store, overwrite and unmap.
// Both whole-value forms are swept: a scalar, which lives in its record and is
// overwritten in place (one transaction, three persists), and a 200-character
// string, which lives in a block of its own (two transactions and a payload
// flush). A transaction that kept its lane or its arena lock after a failed
// commit shows here as a hang.
func TestHandleUsableAfterMediaErrorAtAnyPersist(t *testing.T) {
	long := func(v int) string { return strings.Repeat(string(rune('a'+v)), 200) }
	forms := []struct {
		name     string
		persists int64 // the fewest the overwrite can take
		store    func(p *pmemcpy.PMEM, v int) error
		holds    func(p *pmemcpy.PMEM, v int) error
	}{
		{"inline", 3,
			func(p *pmemcpy.PMEM, v int) error { return pmemcpy.Store(p, "v", int64(v)) },
			func(p *pmemcpy.PMEM, v int) error {
				if got, err := pmemcpy.Load[int64](p, "v"); err != nil || got != int64(v) {
					return fmt.Errorf("Load = (%d, %v)", got, err)
				}
				return nil
			}},
		{"value ref", 10,
			func(p *pmemcpy.PMEM, v int) error { return pmemcpy.StoreString(p, "v", long(v)) },
			func(p *pmemcpy.PMEM, v int) error {
				if got, err := pmemcpy.LoadString(p, "v"); err != nil || got != long(v) {
					return fmt.Errorf("LoadString = (%.8q..., %v)", got, err)
				}
				return nil
			}},
	}
	done := make(chan error, 1)
	go func() {
		for _, f := range forms {
			for k := int64(0); ; k++ {
				n := pmemcpy.NewNode(pmemcpy.DefaultConfig(), 64<<20)
				failed := false
				_, err := pmemcpy.Run(n, 1, func(c *pmemcpy.Comm) error {
					p, err := pmemcpy.Mmap(c, n, "/media.pool")
					if err != nil {
						return err
					}
					if err := f.store(p, 1); err != nil {
						return err
					}
					n.Device.InjectTransient(k, 4)
					err = f.store(p, 2)
					n.Device.DisarmInjection()
					if failed = err != nil; failed {
						if !errors.Is(err, pmemcpy.ErrMedia) {
							return fmt.Errorf("error %q does not wrap ErrMedia", err)
						}
						if err := f.holds(p, 1); err != nil {
							return fmt.Errorf("after the failed store, %v, want the old value", err)
						}
					}
					for i := 0; i < 40; i++ {
						if err := pmemcpy.Store(p, fmt.Sprintf("after-%d", i%8), int64(i)); err != nil {
							return fmt.Errorf("follow-up Store %d: %v", i, err)
						}
					}
					return p.Munmap()
				})
				if err == nil && !failed && k < f.persists { // k is past the store's last persist
					err = fmt.Errorf("the store finished in %d persists; the sweep missed its commits", k)
				}
				if err != nil {
					done <- fmt.Errorf("%s, persist %d: %v", f.name, k, err)
					return
				}
				if !failed {
					break
				}
			}
		}
		done <- nil
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("a Store after an injected media error hangs: the failed one stranded a lane or an arena lock")
	}
}
