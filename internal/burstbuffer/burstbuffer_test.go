package burstbuffer

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"pmemcpy/internal/bytesview"
	"pmemcpy/internal/core"
	"pmemcpy/internal/mpi"
	"pmemcpy/internal/node"
	"pmemcpy/internal/serial"
	"pmemcpy/internal/sim"
)

func newNode() *node.Node {
	n := node.New(sim.DefaultConfig(), 64<<20)
	n.Machine.SetConcurrency(1)
	return n
}

// populate fills a store with two arrays and a scalar, single rank.
func populate(t *testing.T, n *node.Node, path string) {
	t.Helper()
	_, err := mpi.Run(n.Machine, 1, func(c *mpi.Comm) error {
		p, err := core.Mmap(c, n, path)
		if err != nil {
			return err
		}
		for v := 0; v < 2; v++ {
			id := fmt.Sprintf("rect%d", v)
			if err := p.Alloc(id, serial.Float64, []uint64{128}); err != nil {
				return err
			}
			vals := make([]float64, 128)
			for i := range vals {
				vals[i] = float64(v*1000 + i)
			}
			if err := p.StoreBlock(id, []uint64{0}, []uint64{128}, bytesview.Bytes(vals)); err != nil {
				return err
			}
		}
		d := &serial.Datum{Type: serial.Int64, Payload: bytesview.Bytes([]int64{77})}
		if err := p.StoreDatum("step", d); err != nil {
			return err
		}
		return p.Munmap()
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPFSPutGetRoundTrip(t *testing.T) {
	pfs := NewPFS(0, 0)
	pfs.Pool().SetConcurrency(1)
	clk := new(sim.Clock)
	if err := pfs.Put(clk, "a/b", []byte("payload")); err != nil {
		t.Fatal(err)
	}
	got, err := pfs.Get(clk, "a/b")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "payload" {
		t.Fatalf("Get = %q", got)
	}
	if _, err := pfs.Get(clk, "missing"); err == nil {
		t.Fatal("Get(missing) succeeded")
	}
	if pfs.Size("a/b") != 7 || pfs.Size("missing") != -1 {
		t.Fatal("Size wrong")
	}
}

func TestPFSChargesSlowTier(t *testing.T) {
	pfs := NewPFS(2*sim.GB, time.Millisecond)
	pfs.Pool().SetConcurrency(1)
	clk := new(sim.Clock)
	// 2 GB at 2 GB/s = 1 s, plus 1 ms latency.
	if err := pfs.Put(clk, "big", make([]byte, 2_000_000_000/1000)); err != nil {
		t.Fatal(err)
	}
	want := time.Millisecond + time.Millisecond // latency + 2MB/2GBps
	if got := clk.Now(); got != want {
		t.Fatalf("Put cost = %v, want %v", got, want)
	}
	if _, err := pfs.Get(clk, "big"); err != nil {
		t.Fatal(err)
	}
	if got := clk.Now(); got != 2*want {
		t.Fatalf("Put+Get cost = %v, want %v", got, 2*want)
	}
	// The default tier with the uplink shared four ways, pinned to the
	// nanosecond: 500 us latency + 1000003 B at 0.5 GB/s, each way.
	pfs, clk = NewPFS(0, 0), new(sim.Clock)
	pfs.Pool().SetConcurrency(4)
	if err := pfs.Put(clk, "odd", make([]byte, 1_000_003)); err != nil {
		t.Fatal(err)
	}
	put := clk.Now()
	if _, err := pfs.Get(clk, "odd"); err != nil {
		t.Fatal(err)
	}
	if get := clk.Now() - put; put != 2_500_006 || get != 2_500_006 {
		t.Fatalf("shared Put, Get cost = %d, %d ns, want 2500006 each", put, get)
	}
}

func TestPFSIsolatesStoredData(t *testing.T) {
	pfs := NewPFS(0, 0)
	clk := new(sim.Clock)
	buf := []byte("mutable")
	if err := pfs.Put(clk, "x", buf); err != nil {
		t.Fatal(err)
	}
	buf[0] = 'X'
	got, err := pfs.Get(clk, "x")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "mutable" {
		t.Fatalf("PFS aliased caller buffer: %q", got)
	}
	got[0] = 'Y'
	again, _ := pfs.Get(clk, "x")
	if string(again) != "mutable" {
		t.Fatalf("Get aliased stored bytes: %q", again)
	}
}

func TestDrainAndRestoreRoundTrip(t *testing.T) {
	n := newNode()
	populate(t, n, "/bb.pool")
	pfs := NewPFS(0, 0)
	pfs.Pool().SetConcurrency(1)

	// Drain.
	_, err := mpi.Run(n.Machine, 1, func(c *mpi.Comm) error {
		p, err := core.Mmap(c, n, "/bb.pool")
		if err != nil {
			return err
		}
		fl := NewFlusher(pfs)
		moved, err := fl.DrainStore(p, "ckpt/")
		if err != nil {
			return err
		}
		if moved < 2*128*8 {
			return fmt.Errorf("moved only %d bytes", moved)
		}
		return p.Munmap()
	})
	if err != nil {
		t.Fatal(err)
	}
	objs := pfs.List("ckpt/")
	if len(objs) != 3 {
		t.Fatalf("PFS objects = %v", objs)
	}

	// Restore into a fresh store on a fresh node and verify.
	n2 := newNode()
	_, err = mpi.Run(n2.Machine, 1, func(c *mpi.Comm) error {
		p, err := core.Mmap(c, n2, "/restored.pool")
		if err != nil {
			return err
		}
		if _, err := Restore(p, pfs, "ckpt/"); err != nil {
			return err
		}
		for v := 0; v < 2; v++ {
			id := fmt.Sprintf("rect%d", v)
			dst := make([]byte, 128*8)
			if err := p.LoadBlock(id, []uint64{0}, []uint64{128}, dst); err != nil {
				return err
			}
			vals := bytesview.OfCopy[float64](dst)
			for i, got := range vals {
				if got != float64(v*1000+i) {
					return fmt.Errorf("%s[%d] = %g", id, i, got)
				}
			}
		}
		d, err := p.LoadDatum("step")
		if err != nil {
			return err
		}
		if bytesview.OfCopy[int64](d.Payload)[0] != 77 {
			return fmt.Errorf("step = %v", d.Payload)
		}
		return p.Munmap()
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDrainWithEviction(t *testing.T) {
	n := newNode()
	populate(t, n, "/evict.pool")
	pfs := NewPFS(0, 0)
	_, err := mpi.Run(n.Machine, 1, func(c *mpi.Comm) error {
		p, err := core.Mmap(c, n, "/evict.pool")
		if err != nil {
			return err
		}
		fl := NewFlusher(pfs)
		fl.Evict = true
		if _, err := fl.DrainStore(p, "out/"); err != nil {
			return err
		}
		keys, err := p.Keys()
		if err != nil {
			return err
		}
		if len(keys) != 0 {
			return fmt.Errorf("keys remain after eviction: %v", keys)
		}
		// Data must still be safe on the PFS.
		if len(pfs.List("out/")) != 3 {
			return fmt.Errorf("PFS objects = %v", pfs.List("out/"))
		}
		return p.Munmap()
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDrainSlowerThanPMEMStore(t *testing.T) {
	// The tiering premise: flushing to the PFS costs far more virtual time
	// than the PMEM store did, which is why buffering in PMEM absorbs the
	// burst.
	n := newNode()
	var storeTime, drainTime time.Duration
	_, err := mpi.Run(n.Machine, 1, func(c *mpi.Comm) error {
		p, err := core.Mmap(c, n, "/burst.pool")
		if err != nil {
			return err
		}
		vals := make([]float64, 1<<20/8)
		t0 := c.Clock().Now()
		if err := p.Alloc("burst", serial.Float64, []uint64{uint64(len(vals))}); err != nil {
			return err
		}
		if err := p.StoreBlock("burst", []uint64{0}, []uint64{uint64(len(vals))},
			bytesview.Bytes(vals)); err != nil {
			return err
		}
		storeTime = c.Clock().Now() - t0

		pfs := NewPFS(0, 0)
		pfs.Pool().SetConcurrency(1)
		t1 := c.Clock().Now()
		if _, err := NewFlusher(pfs).DrainStore(p, "d/"); err != nil {
			return err
		}
		drainTime = c.Clock().Now() - t1
		return p.Munmap()
	})
	if err != nil {
		t.Fatal(err)
	}
	if drainTime <= storeTime {
		t.Fatalf("drain %v not slower than PMEM store %v", drainTime, storeTime)
	}
}

func TestObjectCodecErrors(t *testing.T) {
	if _, _, _, _, err := decodeObject([]byte{objArray}); err == nil {
		t.Error("truncated object accepted")
	}
	if _, _, _, _, err := decodeObject([]byte{0xFF, 0, 0}); err == nil {
		t.Error("unknown kind accepted")
	}
	if _, _, _, _, err := decodeObject([]byte{objArray, byte(serial.Float64), 2, 1, 2, 3}); err == nil {
		t.Error("truncated dims accepted")
	}
}

func TestListPrefixFilter(t *testing.T) {
	pfs := NewPFS(0, 0)
	clk := new(sim.Clock)
	for _, name := range []string{"a/1", "a/2", "b/1"} {
		if err := pfs.Put(clk, name, []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	got := pfs.List("a/")
	if len(got) != 2 || !strings.HasPrefix(got[0], "a/") {
		t.Fatalf("List = %v", got)
	}
}
