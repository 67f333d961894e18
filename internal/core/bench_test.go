package core_test

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"pmemcpy"
	"pmemcpy/internal/bytesview"
	"pmemcpy/internal/core"
	"pmemcpy/internal/mpi"
	"pmemcpy/internal/node"
	"pmemcpy/internal/serial"
	"pmemcpy/internal/sim"
)

// benchStore measures single-rank StoreBlock wall throughput (real encode +
// copy into the mapped pool).
func BenchmarkStoreBlock(b *testing.B) {
	for _, kb := range []int{64, 1024} {
		b.Run(fmt.Sprintf("%dKB", kb), func(b *testing.B) {
			n := newNode()
			elems := uint64(kb << 10 / 8)
			vals := make([]float64, elems)
			b.SetBytes(int64(kb) << 10)
			_, err := mpi.Run(n.Machine, 1, func(c *mpi.Comm) error {
				p, err := core.Mmap(c, n, "/bench.pool", nil)
				if err != nil {
					return err
				}
				if err := p.Alloc("v", serial.Float64, []uint64{elems * 16}); err != nil {
					return err
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					// Recycle the variable periodically so long runs don't
					// exhaust the pool (blocks append on every store).
					if i%16 == 0 && i > 0 {
						b.StopTimer()
						if _, err := p.Delete("v"); err != nil {
							return err
						}
						b.StartTimer()
					}
					off := []uint64{elems * uint64(i%16)}
					if err := p.StoreBlock("v", off, []uint64{elems}, bytesview.Bytes(vals)); err != nil {
						return err
					}
				}
				b.StopTimer()
				return p.Munmap()
			})
			if err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkLoadBlock measures the symmetric load path. 128KB loads one warm
// block again and again. 4MB/cold is the load copy rung: 16 stored 4 MiB
// blocks (64 MiB) loaded in rotation, each load one block whose bytes have
// left the cache since it was last read — domain3d's load shape, one run past
// bytesview.StreamMin that takes the streaming copy. 4MB/cold/verify-full is
// the same under VerifyFull: the CRC pass over every block before its copy,
// the second pass over the bytes that DESIGN §16's verify-all-then-consume
// costs.
//
//	go test -run '^$' -bench LoadBlock -benchtime 200x ./internal/core/
func BenchmarkLoadBlock(b *testing.B) {
	loadRow(b, "128KB", 128<<10, 1, core.VerifyOff)
	loadRow(b, "4MB/cold", 4<<20, 16, core.VerifyOff)
	loadRow(b, "4MB/cold/verify-full", 4<<20, 16, core.VerifyFull)
}

// loadRow stores blocks blocks of size bytes each and loads them in rotation.
func loadRow(b *testing.B, name string, size, blocks int, verify core.VerifyMode) {
	b.Run(name, func(b *testing.B) {
		n := node.New(sim.DefaultConfig(), int64(2*size*blocks+(32<<20)))
		n.Machine.SetConcurrency(1)
		elems := uint64(size / 8)
		vals := make([]float64, elems)
		for i := range vals {
			vals[i] = float64(i)
		}
		b.SetBytes(int64(size))
		_, err := mpi.Run(n.Machine, 1, func(c *mpi.Comm) error {
			p, err := core.Mmap(c, n, "/benchr.pool", core.WithVerifyReads(verify))
			if err != nil {
				return err
			}
			if err := p.Alloc("v", serial.Float64, []uint64{elems * uint64(blocks)}); err != nil {
				return err
			}
			for i := range blocks {
				if err := p.StoreBlock("v", []uint64{elems * uint64(i)}, []uint64{elems}, bytesview.Bytes(vals)); err != nil {
					return err
				}
			}
			dst := make([]byte, size)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := p.LoadBlock("v", []uint64{elems * uint64(i%blocks)}, []uint64{elems}, dst); err != nil {
					return err
				}
			}
			b.StopTimer()
			return p.Munmap()
		})
		if err != nil {
			b.Fatal(err)
		}
	})
}

// BenchmarkScalarStoreLoad measures the small-value KV path.
func BenchmarkScalarStoreLoad(b *testing.B) {
	n := newNode()
	_, err := mpi.Run(n.Machine, 1, func(c *mpi.Comm) error {
		p, err := core.Mmap(c, n, "/benchs.pool", nil)
		if err != nil {
			return err
		}
		v := []float64{3.14}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			id := fmt.Sprintf("s%d", i%100)
			d := &serial.Datum{Type: serial.Float64, Payload: bytesview.Bytes(v)}
			if err := p.StoreDatum(id, d); err != nil {
				return err
			}
			if _, err := p.LoadDatum(id); err != nil {
				return err
			}
		}
		b.StopTimer()
		return p.Munmap()
	})
	if err != nil {
		b.Fatal(err)
	}
}

// BenchmarkSmallOps is the ladder's small-op rung: the six op kinds smallkv
// issues, on its shapes — a float64 scalar, a 64-byte string, a 32-element
// array stored and loaded as one whole extent — through the public API on
// one handle, in both time domains: wall ns/op, B/op and allocs/op (run with
// -benchmem), and virt-ns/op, the virtual time the cost model charged. The
// LoadSub rows hold the id's block list at 1 and 4 blocks with its index
// warm; StoreSub appends, so its id is deleted and re-declared every 16 ops,
// off both clocks.
//
//	go test -run '^$' -bench SmallOps -benchmem ./internal/core/
func BenchmarkSmallOps(b *testing.B) {
	const elems = 32
	str := strings.Repeat("s", 64)
	arr, got := make([]float64, elems), make([]float64, elems)
	off, cnt := []uint64{0}, []uint64{elems}
	load := func(id string) func(*core.PMEM, int) error {
		return func(p *core.PMEM, _ int) error { return pmemcpy.LoadSub(p, id, got, off, cnt) }
	}
	ops := []struct {
		name string
		op   func(p *core.PMEM, i int) error
	}{
		{"Store", func(p *core.PMEM, i int) error { return pmemcpy.Store(p, "f", float64(i)) }},
		{"Load", func(p *core.PMEM, _ int) error { _, err := pmemcpy.Load[float64](p, "f"); return err }},
		{"StoreString", func(p *core.PMEM, _ int) error { return pmemcpy.StoreString(p, "s", str) }},
		{"LoadString", func(p *core.PMEM, _ int) error { _, err := pmemcpy.LoadString(p, "s"); return err }},
		{"StoreSub", func(p *core.PMEM, _ int) error { return pmemcpy.StoreSub(p, "w", arr, off, cnt) }},
		{"LoadSub/1", load("a1")},
		{"LoadSub/4", load("a4")},
	}
	for _, o := range ops {
		b.Run(o.name, func(b *testing.B) {
			n := newNode()
			_, err := mpi.Run(n.Machine, 1, func(c *mpi.Comm) error {
				p, err := core.Mmap(c, n, "/small.pool")
				if err != nil {
					return err
				}
				if err := pmemcpy.Store(p, "f", 0.5); err != nil {
					return err
				}
				if err := pmemcpy.StoreString(p, "s", str); err != nil {
					return err
				}
				for _, a := range []struct {
					id     string
					blocks int
				}{{"w", 0}, {"a1", 1}, {"a4", 4}} {
					if err := pmemcpy.Alloc[float64](p, a.id, elems); err != nil {
						return err
					}
					for range a.blocks {
						if err := pmemcpy.StoreSub(p, a.id, arr, off, cnt); err != nil {
							return err
						}
					}
				}
				if err := o.op(p, 0); err != nil { // warm the index and the handle's scratch
					return err
				}
				clk := c.Clock()
				var virt, paused time.Duration
				b.ReportAllocs()
				b.ResetTimer()
				t0 := clk.Now()
				for i := 0; i < b.N; i++ {
					if o.name == "StoreSub" && i%16 == 15 {
						b.StopTimer()
						t := clk.Now()
						if _, err := p.Delete("w"); err != nil {
							return err
						}
						if err := pmemcpy.Alloc[float64](p, "w", elems); err != nil {
							return err
						}
						paused += clk.Now() - t
						b.StartTimer()
					}
					if err := o.op(p, i); err != nil {
						return err
					}
				}
				virt = clk.Now() - t0 - paused
				b.StopTimer()
				b.ReportMetric(float64(virt)/float64(b.N), "virt-ns/op")
				return p.Munmap()
			})
			if err != nil {
				b.Fatal(err)
			}
		})
	}
}
