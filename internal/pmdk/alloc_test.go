package pmdk

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"pmemcpy/internal/pmem"
	"pmemcpy/internal/sim"
)

// withTx runs fn inside a transaction and commits it.
func withTx(t *testing.T, p *Pool, fn func(tx *Tx) error) {
	t.Helper()
	clk := newTestClock()
	tx, err := p.Begin(clk)
	if err != nil {
		t.Fatal(err)
	}
	if err := fn(tx); err != nil {
		tx.Abort()
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

func newTestClock() *sim.Clock { return new(sim.Clock) }

func TestClassFor(t *testing.T) {
	tests := []struct {
		n    int64
		want int
	}{
		{1, 0}, {48, 0}, {49, 1}, {112, 1}, {113, 2},
		{240, 2}, {496, 3}, {1008, 4}, {2032, 5}, {2033, -1}, {1 << 20, -1},
	}
	for _, tt := range tests {
		if got := classFor(tt.n); got != tt.want {
			t.Errorf("classFor(%d) = %d, want %d", tt.n, got, tt.want)
		}
	}
}

func TestAllocRejectsNonPositive(t *testing.T) {
	p, _, clk := newTestPool(t, 0)
	tx, err := p.Begin(clk)
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Abort()
	if _, err := p.Alloc(tx, 0); err == nil {
		t.Fatal("Alloc(0) did not fail")
	}
	if _, err := p.Alloc(tx, -8); err == nil {
		t.Fatal("Alloc(-8) did not fail")
	}
}

func TestAllocSmallAndUsableSize(t *testing.T) {
	p, _, clk := newTestPool(t, 0)
	var id PMID
	withTx(t, p, func(tx *Tx) error {
		var err error
		id, err = p.Alloc(tx, 40)
		return err
	})
	us, err := p.UsableSize(clk, id)
	if err != nil {
		t.Fatal(err)
	}
	if us != 48 { // class-0 block 64 minus 16-byte header
		t.Fatalf("UsableSize = %d, want 48", us)
	}
	if int64(id)%8 != 0 {
		t.Fatalf("payload %d not 8-aligned", id)
	}
}

func TestAllocHuge(t *testing.T) {
	p, _, clk := newTestPool(t, 0)
	var id PMID
	withTx(t, p, func(tx *Tx) error {
		var err error
		id, err = p.Alloc(tx, 100_000)
		return err
	})
	us, err := p.UsableSize(clk, id)
	if err != nil {
		t.Fatal(err)
	}
	if us < 100_000 {
		t.Fatalf("UsableSize = %d, want >= 100000", us)
	}
}

func TestFreeAndReuseSameClass(t *testing.T) {
	p, _, _ := newTestPool(t, 0)
	var a PMID
	withTx(t, p, func(tx *Tx) error {
		var err error
		a, err = p.Alloc(tx, 100)
		return err
	})
	withTx(t, p, func(tx *Tx) error { return p.Free(tx, a) })
	var b PMID
	withTx(t, p, func(tx *Tx) error {
		var err error
		b, err = p.Alloc(tx, 100)
		return err
	})
	if a != b {
		t.Fatalf("freed class block not reused: %d then %d", a, b)
	}
}

func TestHugeFreeReuseAndSplit(t *testing.T) {
	p, _, clk := newTestPool(t, 0)
	var big PMID
	withTx(t, p, func(tx *Tx) error {
		var err error
		big, err = p.Alloc(tx, 64<<10)
		return err
	})
	withTx(t, p, func(tx *Tx) error { return p.Free(tx, big) })
	heapBefore, err := p.HeapUsed(clk)
	if err != nil {
		t.Fatal(err)
	}
	// A smaller huge alloc must be served from the freed block (no bump
	// growth) and split off a tail.
	var small PMID
	withTx(t, p, func(tx *Tx) error {
		var err error
		small, err = p.Alloc(tx, 16<<10)
		return err
	})
	if small != big {
		t.Fatalf("first fit did not reuse freed block: %d vs %d", small, big)
	}
	heapAfter, err := p.HeapUsed(clk)
	if err != nil {
		t.Fatal(err)
	}
	if heapAfter != heapBefore {
		t.Fatalf("bump grew from %d to %d despite free-list fit", heapBefore, heapAfter)
	}
	// The split remainder should satisfy another allocation.
	var tail PMID
	withTx(t, p, func(tx *Tx) error {
		var err error
		tail, err = p.Alloc(tx, 16<<10)
		return err
	})
	if tail == small {
		t.Fatal("tail allocation aliased the first")
	}
	if heapAfter2, _ := p.HeapUsed(clk); heapAfter2 != heapBefore {
		t.Fatalf("bump grew to %d despite split tail fit", heapAfter2)
	}
}

func TestDoubleFreeDetected(t *testing.T) {
	p, _, _ := newTestPool(t, 0)
	var id PMID
	withTx(t, p, func(tx *Tx) error {
		var err error
		id, err = p.Alloc(tx, 100)
		return err
	})
	withTx(t, p, func(tx *Tx) error { return p.Free(tx, id) })
	clk := newTestClock()
	tx, err := p.Begin(clk)
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Abort()
	if err := p.Free(tx, id); !errors.Is(err, ErrBadPointer) {
		t.Fatalf("double free err = %v, want ErrBadPointer", err)
	}
}

func TestFreeRejectsWildPointer(t *testing.T) {
	p, _, _ := newTestPool(t, 0)
	clk := newTestClock()
	tx, err := p.Begin(clk)
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Abort()
	if err := p.Free(tx, PMID(12)); !errors.Is(err, ErrBadPointer) {
		t.Fatalf("wild free err = %v, want ErrBadPointer", err)
	}
}

func TestHeapExhaustion(t *testing.T) {
	p, _, _ := newTestPool(t, 1<<20) // 1 MB pool
	clk := newTestClock()
	tx, err := p.Begin(clk)
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Abort()
	if _, err := p.Alloc(tx, 4<<20); !errors.Is(err, ErrNoSpace) {
		t.Fatalf("oversized alloc err = %v, want ErrNoSpace", err)
	}
}

func TestAbortedAllocRollsBackBump(t *testing.T) {
	// An aborted Alloc must not consume heap: the abort puts its block back
	// on a free list, so repeating the cycle reuses it instead of advancing
	// the brk every time.
	p, _, clk := newTestPool(t, 0)
	var after [2]int64
	for round := 0; round < 2; round++ {
		tx, err := p.Begin(clk)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := p.Alloc(tx, 1000); err != nil {
			t.Fatal(err)
		}
		if err := tx.Abort(); err != nil {
			t.Fatal(err)
		}
		used, err := p.HeapUsed(clk)
		if err != nil {
			t.Fatal(err)
		}
		after[round] = used
	}
	if after[1] != after[0] {
		t.Fatalf("heap grew from %d to %d across repeated aborted allocs", after[0], after[1])
	}
}

// TestRetireLogsNothing: an exhausted current extent joins the huge list as it
// is — its header already reads free — and the carve that retires it persists
// the new extent's tail header unlogged, so its transaction logs one undo
// entry, the block's header with the claim's state word inside it. An abort
// gives back the block, not the extent: the retired extent stays on the huge
// list, the new one's tail stays current, and the block joins its class list.
func TestRetireLogsNothing(t *testing.T) {
	for _, commit := range []bool{false, true} {
		p, _, clk := newTestPool(t, 0)
		withTx(t, p, func(tx *Tx) error { _, err := p.Alloc(tx, 100); return err })
		if err := fillExtent(p, clk); err != nil {
			t.Fatal(err)
		}
		a := &p.arenas[0]
		old := a.cur
		if old.size == 0 || old.size >= maxClassBlock {
			t.Fatalf("fillExtent left a current extent of %d bytes", old.size)
		}
		before := p.Stats().UndoEntries
		tx, err := p.Begin(clk)
		if err != nil {
			t.Fatal(err)
		}
		id, err := p.Alloc(tx, maxClassBlock-blockHeaderSize)
		if err != nil {
			t.Fatal(err)
		}
		if commit {
			err = tx.Commit()
		} else {
			err = tx.Abort()
		}
		if err != nil {
			t.Fatal(err)
		}
		if got := p.Stats().UndoEntries - before; got != 1 {
			t.Errorf("a carve that retires its extent logged %d undo entries, want 1", got)
		}
		if !slices.Contains(a.huge, old) {
			t.Errorf("retired extent %+v not on the huge list %v", old, a.huge)
		}
		if size, state, err := p.blockHeader(clk, old.id); err != nil || size != old.size || state != stateFree {
			t.Errorf("retired extent header reads size %d, state %#x (%v), want %d free", size, state, err, old.size)
		}
		if a.cur.id != id+maxClassBlock {
			t.Errorf("current extent %+v, want the new extent's tail after block %d", a.cur, id)
		}
		if l := a.class[nSizeClasses-1]; !commit && (len(l) == 0 || l[len(l)-1] != id) {
			t.Errorf("after an abort block %d is not on its class list %v", id, l)
		}
	}
}

// TestAbortedPopStaysReusable: a block popped in a transaction that aborts is
// back on its list and counted there, so another rank's Alloc still finds it
// through the steal scan instead of growing the heap.
func TestAbortedPopStaysReusable(t *testing.T) {
	m := sim.NewMachine(sim.DefaultConfig())
	m.SetConcurrency(1)
	mp, err := pmem.NewMapping(pmem.New(m, 4<<20), 0, 4<<20, false)
	if err != nil {
		t.Fatal(err)
	}
	o := DefaultOptions()
	o.Arenas = 2
	r0, r1 := &sim.Clock{Rank: 0}, &sim.Clock{Rank: 1}
	p, err := Create(r0, mp, &o)
	if err != nil {
		t.Fatal(err)
	}
	const k = 4
	freed := make(map[PMID]bool)
	var ids []PMID
	tx, _ := p.Begin(r0)
	for range k {
		id, err := p.Alloc(tx, 100)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	tx, _ = p.Begin(r0)
	for _, id := range ids {
		if err := p.Free(tx, id); err != nil {
			t.Fatal(err)
		}
		freed[id] = true
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	for range k {
		tx, _ := p.Begin(r0)
		if id, err := p.Alloc(tx, 100); err != nil || !freed[id] {
			t.Fatalf("rank 0 reuse = %d, %v; want one of its freed blocks", id, err)
		}
		if err := tx.Abort(); err != nil {
			t.Fatal(err)
		}
	}
	heap, _ := p.HeapUsed(r1)
	steals := p.Stats().ArenaSteals
	tx, _ = p.Begin(r1)
	id, err := p.Alloc(tx, 100)
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if !freed[id] {
		t.Errorf("rank 1 got %d, want one of the %d blocks rank 0 freed", id, k)
	}
	if got := p.Stats().ArenaSteals - steals; got != 1 {
		t.Errorf("ArenaSteals moved by %d, want 1", got)
	}
	if now, _ := p.HeapUsed(r1); now != heap {
		t.Errorf("HeapUsed %d -> %d: the heap grew past free blocks", heap, now)
	}
}

// TestReserveHeapBudget: a reservation and its Cancel put nothing on the Go
// heap — a class block popped off its list and pushed back (no huge list
// holds the block after it, so there is nothing to merge with), and a block split off
// a huge free block (two header stores) and merged back into it from another
// rank (one more) — and the splits leave nothing behind: the huge free block
// is whole again after each Cancel.
func TestReserveHeapBudget(t *testing.T) {
	m := sim.NewMachine(sim.DefaultConfig())
	m.SetConcurrency(1)
	mp, err := pmem.NewMapping(pmem.New(m, 16<<20), 0, 16<<20, false)
	if err != nil {
		t.Fatal(err)
	}
	o := DefaultOptions()
	o.Arenas = 2
	r0, r1 := &sim.Clock{Rank: 0}, &sim.Clock{Rank: 1}
	p, err := Create(r0, mp, &o)
	if err != nil {
		t.Fatal(err)
	}
	var class, huge PMID
	withTx(t, p, func(tx *Tx) (err error) {
		if class, err = p.Alloc(tx, 100); err == nil {
			if _, err = p.Alloc(tx, 100); err == nil {
				huge, err = p.Alloc(tx, 8<<20)
			}
		}
		return err
	})
	withTx(t, p, func(tx *Tx) error { return errors.Join(p.Free(tx, class), p.Free(tx, huge)) })
	whole := slices.Clone(p.arenas[0].huge)
	for _, c := range []struct {
		name   string
		n      int64
		cancel *sim.Clock
	}{{"class", 100, r0}, {"split", 10_000, r1}} {
		extents := p.Stats().Extents
		if got := testing.AllocsPerRun(100, func() {
			id, err := p.Reserve(r0, c.n)
			if err == nil {
				err = p.Cancel(c.cancel, id)
			}
			if err != nil {
				t.Fatal(err)
			}
		}); got != 0 {
			t.Errorf("%s: Reserve+Cancel = %v allocs, want 0", c.name, got)
		}
		if p.Stats().Extents != extents {
			t.Errorf("%s: the reservations carved fresh extents", c.name)
		}
	}
	if got := p.arenas[0].huge; !slices.Equal(got, whole) || len(whole) != 1 || len(p.arenas[1].huge) != 0 {
		t.Errorf("huge lists hold %v and %v after the cancels, want %v and none", got, p.arenas[1].huge, whole)
	}
	if got := p.arenas[0].class[classFor(100)]; !slices.Equal(got, []PMID{class}) {
		t.Errorf("class list holds %v after the cancels, want [%d]", got, class)
	}
}

// TestGiveBackRestoresSplitBlock: a block split off a huge free block goes
// back whole however the reservation ends without a commit — a Cancel, an
// aborted Claim, an aborted Alloc — so a later request of the original size
// reuses it and the brk does not grow.
func TestGiveBackRestoresSplitBlock(t *testing.T) {
	p, _, clk := newTestPool(t, 8<<20)
	var huge PMID
	withTx(t, p, func(tx *Tx) (err error) { huge, err = p.Alloc(tx, 1<<20); return err })
	withTx(t, p, func(tx *Tx) error { return p.Free(tx, huge) })
	heap, _ := p.HeapUsed(clk)
	for _, end := range []string{"cancel", "claim-abort", "alloc-abort"} {
		for range 5 {
			tx, err := p.Begin(clk)
			if err != nil {
				t.Fatal(err)
			}
			var id PMID
			switch end {
			case "cancel":
				if id, err = p.Reserve(clk, 5000); err == nil {
					err = p.Cancel(clk, id)
				}
			case "claim-abort":
				if id, err = p.Reserve(clk, 5000); err == nil {
					err = p.Claim(tx, id)
				}
			default:
				id, err = p.Alloc(tx, 5000)
			}
			if err != nil {
				t.Fatalf("%s: %v", end, err)
			}
			if err := tx.Abort(); err != nil {
				t.Fatal(err)
			}
		}
		if vs := p.Verify(clk); len(vs) != 0 {
			t.Fatalf("%s: %v", end, vs)
		}
		withTx(t, p, func(tx *Tx) (err error) {
			id, err := p.Alloc(tx, 1<<20)
			if err == nil && id != huge {
				err = fmt.Errorf("%s: the original size went to %d, not the freed block %d", end, id, huge)
			}
			if err == nil {
				err = p.Free(tx, id)
			}
			return err
		})
	}
	if now, _ := p.HeapUsed(clk); now != heap {
		t.Errorf("HeapUsed %d -> %d: a given-back split stayed split", heap, now)
	}
}

// TestFailedBrkAdvanceStrandsNothing fails the persist of the brk advance
// that grants a fresh extent: the brk stays where it was, so the heap walk
// and the free lists still agree, and the next reservation takes the same
// space.
func TestFailedBrkAdvanceStrandsNothing(t *testing.T) {
	dev, _, p := crashRig(t, 8<<20)
	clk := new(sim.Clock)
	brk, _ := p.HeapUsed(clk)
	dev.InjectTransient(1, 5) // the brk's persist: the extent's format is op 0
	if _, err := p.Reserve(clk, 100_000); !errors.Is(err, pmem.ErrMedia) {
		t.Fatalf("Reserve with the brk's persist failed = %v, want ErrMedia", err)
	}
	dev.DisarmInjection()
	if now, _ := p.HeapUsed(clk); now != brk {
		t.Errorf("HeapUsed %d -> %d after the failed advance", brk, now)
	}
	if vs := p.Verify(clk); len(vs) != 0 {
		t.Errorf("after the failed advance: %v", vs)
	}
	id, err := p.Reserve(clk, 100_000)
	if err != nil || int64(id) != p.heapOff+brk+blockHeaderSize {
		t.Errorf("the next Reserve = %d, %v; want the block at the old brk, %d", id, err, p.heapOff+brk+blockHeaderSize)
	}
}

// TestFailedSplitLeavesBlockWhole fails the persist of a split's head header
// (after its tail's went through) and then allocates, in a committed
// transaction, exactly what the tail would have been. The failed reservation
// must leave the free block whole: listing its tail would let that block be
// handed out while the head's header on media still spans it, and a crash
// would then give its space to the next allocation.
func TestFailedSplitLeavesBlockWhole(t *testing.T) {
	dev, mp, p := crashRig(t, 8<<20)
	clk := new(sim.Clock)
	const size = 64 << 10
	var huge PMID
	withTx(t, p, func(tx *Tx) (err error) { huge, err = p.Alloc(tx, size); return err })
	withTx(t, p, func(tx *Tx) error { return p.Free(tx, huge) })
	fb := hugeBlockSize(size)
	head := hugeBlockSize(8 << 10)
	dev.InjectTransient(1, 5) // the head's persist: the tail's is op 0
	if _, err := p.Reserve(clk, 8<<10); !errors.Is(err, pmem.ErrMedia) {
		t.Fatalf("Reserve with the head's persist failed = %v, want ErrMedia", err)
	}
	dev.DisarmInjection()
	if vs := p.Verify(clk); len(vs) != 0 {
		t.Fatalf("after the failed split: %v", vs)
	}
	var tailSized PMID
	withTx(t, p, func(tx *Tx) (err error) {
		tailSized, err = p.Alloc(tx, fb-head-blockHeaderSize)
		return err
	})
	if err := p.StoreBytesAt(clk, tailSized, []byte("committed"), true, ptTest); err != nil {
		t.Fatal(err)
	}
	dev.Crash(pmem.CrashLoseAll, nil)
	p2, err := Open(clk, mp)
	if err != nil {
		t.Fatal(err)
	}
	if vs := p2.Verify(clk); len(vs) != 0 {
		t.Fatalf("after the crash: %v", vs)
	}
	found := false
	if err := p2.walkHeap(clk, func(id PMID, _ int64, free bool) { found = found || (id == tailSized && !free) }); err != nil {
		t.Fatal(err)
	}
	if !found {
		t.Fatalf("the heap walk after the crash does not find the committed block %d", tailSized)
	}
	withTx(t, p2, func(tx *Tx) (err error) {
		id, err := p2.Alloc(tx, fb-blockHeaderSize)
		if err == nil && overlaps(int64(id), fb-blockHeaderSize, int64(tailSized), fb-head-blockHeaderSize) {
			err = fmt.Errorf("the allocation after the crash [%d,+%d) overlaps the committed block %d", id, fb, tailSized)
		}
		return err
	})
}

// Property: a random interleaving of allocs and frees never hands out
// overlapping live blocks and every block stays within the heap.
func TestAllocNoOverlapProperty(t *testing.T) {
	p, _, clk := newTestPool(t, 8<<20)
	rng := rand.New(rand.NewSource(99))
	type block struct{ off, size int64 }
	live := make(map[PMID]block)

	for step := 0; step < 400; step++ {
		if len(live) > 0 && rng.Intn(3) == 0 {
			// Free a random live block.
			keys := make([]PMID, 0, len(live))
			for k := range live {
				keys = append(keys, k)
			}
			sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
			victim := keys[rng.Intn(len(keys))]
			withTx(t, p, func(tx *Tx) error { return p.Free(tx, victim) })
			delete(live, victim)
			continue
		}
		n := int64(rng.Intn(5000) + 1)
		var id PMID
		withTx(t, p, func(tx *Tx) error {
			var err error
			id, err = p.Alloc(tx, n)
			return err
		})
		us, err := p.UsableSize(clk, id)
		if err != nil {
			t.Fatal(err)
		}
		if us < n {
			t.Fatalf("UsableSize %d < requested %d", us, n)
		}
		nb := block{int64(id), us}
		if nb.off < p.heapOff || nb.off+nb.size > p.heapEnd {
			t.Fatalf("block [%d,%d) outside heap [%d,%d)", nb.off, nb.off+nb.size, p.heapOff, p.heapEnd)
		}
		for other, ob := range live {
			if nb.off < ob.off+ob.size && ob.off < nb.off+nb.size {
				t.Fatalf("overlap: new [%d,%d) with %d [%d,%d)",
					nb.off, nb.off+nb.size, other, ob.off, ob.off+ob.size)
			}
		}
		live[id] = nb
	}
	st := p.Stats()
	if st.Allocs == 0 || st.Frees == 0 {
		t.Fatalf("stats did not move: %+v", st)
	}
}

func TestAllocDataSurvivesReopen(t *testing.T) {
	p, mp, clk := newTestPool(t, 0)
	var id PMID
	withTx(t, p, func(tx *Tx) error {
		var err error
		id, err = p.Alloc(tx, 256)
		return err
	})
	if err := p.StoreBytesAt(clk, id, []byte("durable payload"), true, ptTest); err != nil {
		t.Fatal(err)
	}
	// Publish the PMID in the root so reopen can find it.
	root, _ := p.Root()
	withTx(t, p, func(tx *Tx) error { return tx.WriteU64(root, uint64(id)) })

	p2, err := Open(clk, mp)
	if err != nil {
		t.Fatal(err)
	}
	root2, _ := p2.Root()
	got, err := p2.ReadU64(clk, root2)
	if err != nil {
		t.Fatal(err)
	}
	data, err := p2.ReadBytes(clk, PMID(got), 15)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "durable payload" {
		t.Fatalf("reopened payload = %q", data)
	}
}
