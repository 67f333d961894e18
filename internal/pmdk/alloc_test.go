package pmdk

import (
	"errors"
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
	// An aborted Alloc must not consume heap: the rollback restores the
	// headers, the abort path restores the arena's current extent and returns
	// the reserved extent to a free list, so repeating the cycle reuses the
	// same space instead of advancing the brk every time.
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
// is — its header already reads free — so the carve that retires it logs only
// the new extent's split, the tail's and the block's size|state, and an abort
// puts it back as the current extent.
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
		if _, err := p.Alloc(tx, maxClassBlock-blockHeaderSize); err != nil {
			t.Fatal(err)
		}
		if !commit {
			if err := tx.Abort(); err != nil {
				t.Fatal(err)
			}
			if a.cur != old || slices.Contains(a.huge, old) {
				t.Fatalf("after an abort the current extent is %+v (huge %v), want %+v off the lists", a.cur, a.huge, old)
			}
			continue
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		if got := p.Stats().UndoEntries - before; got != 2 {
			t.Errorf("a carve that retires its extent logged %d undo entries, want 2", got)
		}
		if !slices.Contains(a.huge, old) {
			t.Errorf("retired extent %+v not on the huge list %v", old, a.huge)
		}
		if size, state, err := p.blockHeader(clk, old.id); err != nil || size != old.size || state != stateFree {
			t.Errorf("retired extent header reads size %d, state %#x (%v), want %d free", size, state, err, old.size)
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
