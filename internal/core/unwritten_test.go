package core_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"pmemcpy/internal/core"
	"pmemcpy/internal/mpi"
	"pmemcpy/internal/node"
	"pmemcpy/internal/serial"
	"pmemcpy/internal/sim"
)

// TestPoolOnRecycledExtent fills the whole device with 0xA5 through a file,
// removes it, and maps a pool over the recycled extent: nothing zeroes the
// pool file eagerly, and nothing of the removed file may show. The stored
// array reads back through a zero-copy view, the deep check is clean, and the
// whole pool file, read through the kernel path, holds no run of stale bytes.
func TestPoolOnRecycledExtent(t *testing.T) {
	n := node.New(sim.DefaultConfig(), 16<<20)
	n.Machine.SetConcurrency(1)
	clk := new(sim.Clock)
	old, err := n.FS.Create(clk, "/old")
	if err != nil {
		t.Fatal(err)
	}
	if err := old.Truncate(clk, n.Device.Size()); err != nil {
		t.Fatal(err)
	}
	m, err := old.Mmap(clk, false)
	if err != nil {
		t.Fatal(err)
	}
	s, err := m.Slice(0, m.Len())
	if err != nil {
		t.Fatal(err)
	}
	for i := range s {
		s[i] = 0xA5
	}
	if err := n.FS.Remove(clk, "/old"); err != nil {
		t.Fatal(err)
	}

	const elems = 300_000 // a multi-granule block
	data := make([]byte, 8*elems)
	for i := range elems {
		binary.LittleEndian.PutUint64(data[8*i:], math.Float64bits(float64(i+1)))
	}
	_, err = mpi.Run(n.Machine, 1, func(c *mpi.Comm) error {
		p, err := core.Mmap(c, n, "/recycled.pool", core.OptionsArg(&core.Options{Codec: "raw"}))
		if err != nil {
			return err
		}
		if err := p.Alloc("A", serial.Float64, []uint64{elems}); err != nil {
			return err
		}
		if err := p.StoreBlock("A", []uint64{0}, []uint64{elems}, data); err != nil {
			return err
		}
		v, err := p.LoadBlockView("A", []uint64{0}, []uint64{elems})
		if err != nil {
			return err
		}
		got, err := v.Bytes()
		if !v.ZeroCopy() || err != nil || !bytes.Equal(got, data) {
			return fmt.Errorf("view: zero-copy %v, equal %v, err %v", v.ZeroCopy(), bytes.Equal(got, data), err)
		}
		if err := v.Close(); err != nil {
			return err
		}
		deep, err := p.DeepCheck()
		if err != nil {
			return err
		}
		if !deep.OK() {
			return fmt.Errorf("deep check on a recycled extent: %s", deep.Summary())
		}
		return p.Munmap()
	})
	if err != nil {
		t.Fatal(err)
	}
	f, err := n.FS.Open(clk, "/recycled.pool")
	if err != nil {
		t.Fatal(err)
	}
	pool := make([]byte, f.Size())
	if _, err := f.ReadAt(clk, pool, 0); err != nil {
		t.Fatal(err)
	}
	if i := bytes.Index(pool, bytes.Repeat([]byte{0xA5}, 64)); i >= 0 {
		t.Fatalf("pool file byte %d starts a run of the removed file's bytes", i)
	}
}
