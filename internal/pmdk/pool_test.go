package pmdk

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"pmemcpy/internal/pmem"
	"pmemcpy/internal/sim"
)

// ptTest tags persists issued directly by this package's tests.
var ptTest = pmem.RegisterPoint("pmdk.test")

// u64 is the little-endian word an 8-byte string occupies in the pool, for
// transactional writes of recognizable content.
func u64(s string) uint64 { return binary.LittleEndian.Uint64([]byte(s)) }

// newTestPool creates a device+mapping+pool for tests and returns them with
// a clock. Size defaults to 4 MB.
func newTestPool(t *testing.T, size int64, devOpts ...pmem.Option) (*Pool, *pmem.Mapping, *sim.Clock) {
	t.Helper()
	if size == 0 {
		size = 4 << 20
	}
	m := sim.NewMachine(sim.DefaultConfig())
	m.SetConcurrency(1)
	dev := pmem.New(m, size, devOpts...)
	mp, err := pmem.NewMapping(dev, 0, size, false)
	if err != nil {
		t.Fatal(err)
	}
	clk := new(sim.Clock)
	p, err := Create(clk, mp, nil)
	if err != nil {
		t.Fatal(err)
	}
	return p, mp, clk
}

func TestCreateOpenRoundTrip(t *testing.T) {
	p, mp, clk := newTestPool(t, 0)
	root, size := p.Root()
	if root == Null || size != 4096 {
		t.Fatalf("Root() = (%d, %d)", root, size)
	}
	// Write something recognizable into the root, durably.
	if err := p.StoreBytesAt(clk, root, []byte("root payload"), true, ptTest); err != nil {
		t.Fatal(err)
	}
	p2, err := Open(clk, mp)
	if err != nil {
		t.Fatal(err)
	}
	root2, size2 := p2.Root()
	if root2 != root || size2 != size {
		t.Fatalf("reopened root = (%d,%d), want (%d,%d)", root2, size2, root, size)
	}
	got, err := p2.ReadBytes(clk, root2, 12)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "root payload" {
		t.Fatalf("root content = %q", got)
	}
}

func TestOpenRejectsGarbage(t *testing.T) {
	m := sim.NewMachine(sim.DefaultConfig())
	dev := pmem.New(m, 1<<20)
	mp, err := pmem.NewMapping(dev, 0, 1<<20, false)
	if err != nil {
		t.Fatal(err)
	}
	clk := new(sim.Clock)
	if _, err := Open(clk, mp); !errors.Is(err, ErrBadPool) {
		t.Fatalf("Open(zeroed) err = %v, want ErrBadPool", err)
	}
}

func TestOpenRejectsCorruptHeader(t *testing.T) {
	p, mp, clk := newTestPool(t, 0)
	_ = p
	// Flip a byte inside the checksummed region.
	b, err := mp.Slice(hdrPoolSize, 1)
	if err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0xFF
	if _, err := Open(clk, mp); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Open(corrupt) err = %v, want ErrCorrupt", err)
	}
	b[0] ^= 0xFF // restore
	if _, err := Open(clk, mp); err != nil {
		t.Fatalf("Open(restored) err = %v", err)
	}
}

func TestCreateRejectsTinyMapping(t *testing.T) {
	m := sim.NewMachine(sim.DefaultConfig())
	dev := pmem.New(m, 1<<20)
	mp, err := pmem.NewMapping(dev, 0, 64<<10, false)
	if err != nil {
		t.Fatal(err)
	}
	clk := new(sim.Clock)
	if _, err := Create(clk, mp, nil); !errors.Is(err, ErrNoSpace) {
		t.Fatalf("Create(tiny) err = %v, want ErrNoSpace", err)
	}
}

func TestCreateRejectsBadOptions(t *testing.T) {
	m := sim.NewMachine(sim.DefaultConfig())
	dev := pmem.New(m, 1<<20)
	mp, _ := pmem.NewMapping(dev, 0, 1<<20, false)
	clk := new(sim.Clock)
	for _, o := range []Options{
		{RootSize: -1, Lanes: 4, LaneLogSize: 8192},
		{RootSize: 0, Lanes: 0, LaneLogSize: 8192},
		{RootSize: 0, Lanes: 4, LaneLogSize: 100},
	} {
		if _, err := Create(clk, mp, &o); err == nil {
			t.Errorf("Create accepted options %+v", o)
		}
	}
}

func TestTxCommitMakesWritesVisible(t *testing.T) {
	p, _, clk := newTestPool(t, 0)
	root, _ := p.Root()
	tx, err := p.Begin(clk)
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.WriteU64(root, 0xDEADBEEF); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	v, err := p.ReadU64(clk, root)
	if err != nil {
		t.Fatal(err)
	}
	if v != 0xDEADBEEF {
		t.Fatalf("committed value = %#x", v)
	}
}

func TestTxAbortRollsBack(t *testing.T) {
	p, _, clk := newTestPool(t, 0)
	root, _ := p.Root()
	if err := p.StoreBytesAt(clk, root, []byte("original"), true, ptTest); err != nil {
		t.Fatal(err)
	}
	tx, err := p.Begin(clk)
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.WriteU64(root, u64("mutated!")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
	got, err := p.ReadBytes(clk, root, 8)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "original" {
		t.Fatalf("after abort = %q, want original", got)
	}
	if p.Stats().Aborts != 1 {
		t.Fatalf("Aborts = %d, want 1", p.Stats().Aborts)
	}
}

func TestTxAbortReversesMultipleWritesInOrder(t *testing.T) {
	p, _, clk := newTestPool(t, 0)
	root, _ := p.Root()
	if err := p.StoreBytesAt(clk, root, []byte{1}, true, ptTest); err != nil {
		t.Fatal(err)
	}
	tx, err := p.Begin(clk)
	if err != nil {
		t.Fatal(err)
	}
	// Logged writes to the same byte: rollback must land on the value before
	// the first write. The second is covered by the first's pre-image; the
	// third is a wider range, so it is logged — with the mutated word as its
	// pre-image — and only reverse order ends on the original.
	if err := tx.WriteU64(root, 2); err != nil {
		t.Fatal(err)
	}
	if err := tx.WriteU64(root, 3); err != nil {
		t.Fatal(err)
	}
	if err := tx.WriteU64s(root, 4, 5); err != nil {
		t.Fatal(err)
	}
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
	got, err := p.ReadBytes(clk, root, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 1 {
		t.Fatalf("after abort byte = %d, want 1", got[0])
	}
}

func TestTxDoubleFinishFails(t *testing.T) {
	p, _, clk := newTestPool(t, 0)
	tx, err := p.Begin(clk)
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err == nil {
		t.Fatal("double Commit did not fail")
	}
	if err := tx.Abort(); err == nil {
		t.Fatal("Abort after Commit did not fail")
	}
	if err := tx.Add(PMID(p.rootOff), 8); err == nil {
		t.Fatal("Add after Commit did not fail")
	}
}

func TestTxLogFull(t *testing.T) {
	p, _, clk := newTestPool(t, 0)
	tx, err := p.Begin(clk)
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Abort()
	// Each Add consumes 16+len of a 16 KB lane: a handful of 4 KB adds
	// overflow it. The ranges are disjoint — an Add inside a range this
	// transaction has already logged consumes nothing.
	var lastErr error
	for i := 0; i < 32; i++ {
		if lastErr = tx.Add(PMID(p.heapOff)+PMID(i*4096), 4096); lastErr != nil {
			break
		}
	}
	if !errors.Is(lastErr, ErrTxLogFull) {
		t.Fatalf("expected ErrTxLogFull, got %v", lastErr)
	}
}

func TestTxAddRejectsBadRange(t *testing.T) {
	p, _, clk := newTestPool(t, 0)
	tx, err := p.Begin(clk)
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Abort()
	if err := tx.Add(PMID(p.m.Len()), 8); !errors.Is(err, ErrBadPointer) {
		t.Fatalf("Add(out of range) err = %v, want ErrBadPointer", err)
	}
}

func TestConcurrentTransactionsUseDistinctLanes(t *testing.T) {
	p, _, _ := newTestPool(t, 0)
	const n = 16
	done := make(chan error, n)
	for i := 0; i < n; i++ {
		go func(i int) {
			clk := new(sim.Clock)
			tx, err := p.Begin(clk)
			if err != nil {
				done <- err
				return
			}
			// Each goroutine writes a disjoint root slot.
			root, _ := p.Root()
			off := root + PMID(i*8)
			if err := tx.WriteU64(off, uint64(i+1)); err != nil {
				done <- err
				return
			}
			done <- tx.Commit()
		}(i)
	}
	for i := 0; i < n; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	clk := new(sim.Clock)
	root, _ := p.Root()
	for i := 0; i < n; i++ {
		v, err := p.ReadU64(clk, root+PMID(i*8))
		if err != nil {
			t.Fatal(err)
		}
		if v != uint64(i+1) {
			t.Fatalf("slot %d = %d, want %d", i, v, i+1)
		}
	}
}

func TestStoreBytesAndReadBytes(t *testing.T) {
	p, _, clk := newTestPool(t, 0)
	root, _ := p.Root()
	payload := bytes.Repeat([]byte{0x5A}, 1000)
	if err := p.StoreBytesAt(clk, root, payload, true, ptTest); err != nil {
		t.Fatal(err)
	}
	got, err := p.ReadBytes(clk, root, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("StoreBytesAt/ReadBytes mismatch")
	}
}

// TestPoolOpenHeapBudget holds a reopen's Go-heap cost to a handful of objects
// whatever the bucket count: the pool, its lane and transaction pools, its
// arenas and the hashtable handle. Persistent locks are a fixed array inside
// the pool, not objects made at open.
func TestPoolOpenHeapBudget(t *testing.T) {
	p, mp, clk := newTestPool(t, 16<<20)
	if _, err := FormatPool(clk, p, DefaultBuckets); err != nil {
		t.Fatal(err)
	}
	got := testing.AllocsPerRun(20, func() {
		p2, err := Open(clk, mp)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := p2.RootHashtable(clk); err != nil {
			t.Fatal(err)
		}
	})
	if got > 8 {
		t.Errorf("Open + RootHashtable = %v allocations, want <= 8", got)
	}
}

func TestLockIsStablePerPMID(t *testing.T) {
	p, _, _ := newTestPool(t, 0)
	a := p.Lock(PMID(123))
	b := p.Lock(PMID(123))
	if a != b {
		t.Fatal("Lock returned different mutexes for the same PMID")
	}
	c := p.Lock(PMID(456))
	if a == c {
		t.Fatal("Lock returned the same mutex for different PMIDs")
	}
}
