package pmdk

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"pmemcpy/internal/pmem"
	"pmemcpy/internal/sim"
)

// Systematic crash testing: run a workload, kill the device after the k-th
// persist for every k, crash with an adversarial cache-loss mode, recover,
// and check invariants. This exercises every ordering point of the undo-log
// protocol against the cacheline-granular crash simulator.

// crashRig builds a tracked device and a fresh pool on it.
func crashRig(t *testing.T, size int64) (*pmem.Device, *pmem.Mapping, *Pool) {
	t.Helper()
	m := sim.NewMachine(sim.DefaultConfig())
	m.SetConcurrency(1)
	dev := pmem.New(m, size, pmem.WithCrashTracking())
	mp, err := pmem.NewMapping(dev, 0, size, false)
	if err != nil {
		t.Fatal(err)
	}
	clk := new(sim.Clock)
	p, err := Create(clk, mp, nil)
	if err != nil {
		t.Fatal(err)
	}
	return dev, mp, p
}

func TestCrashMidTransactionRollsBack(t *testing.T) {
	dev, mp, p := crashRig(t, 8<<20)
	clk := new(sim.Clock)
	root, _ := p.Root()
	if err := p.StoreBytesAt(clk, root, []byte("AAAAAAAA"), true, ptTest); err != nil {
		t.Fatal(err)
	}
	tx, err := p.Begin(clk)
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.WriteU64(root, u64("BBBBBBBB")); err != nil {
		t.Fatal(err)
	}
	// No commit: crash. Keep-all is the adversarial case here — the mutation
	// reached PMEM but the transaction never committed, so recovery must
	// still roll it back using the persisted undo entry.
	dev.Crash(pmem.CrashKeepAll, nil)
	p2, err := Open(clk, mp)
	if err != nil {
		t.Fatal(err)
	}
	if p2.Stats().Recovered != 1 {
		t.Fatalf("Recovered = %d, want 1", p2.Stats().Recovered)
	}
	root2, _ := p2.Root()
	got, err := p2.ReadBytes(clk, root2, 8)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "AAAAAAAA" {
		t.Fatalf("after recovery root = %q, want AAAAAAAA", got)
	}
}

func TestCrashAfterCommitKeepsMutation(t *testing.T) {
	dev, mp, p := crashRig(t, 8<<20)
	clk := new(sim.Clock)
	root, _ := p.Root()
	if err := p.StoreBytesAt(clk, root, []byte("AAAAAAAA"), true, ptTest); err != nil {
		t.Fatal(err)
	}
	tx, err := p.Begin(clk)
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.WriteU64(root, u64("CCCCCCCC")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	dev.Crash(pmem.CrashLoseAll, nil)
	p2, err := Open(clk, mp)
	if err != nil {
		t.Fatal(err)
	}
	if p2.Stats().Recovered != 0 {
		t.Fatalf("Recovered = %d, want 0", p2.Stats().Recovered)
	}
	root2, _ := p2.Root()
	got, err := p2.ReadBytes(clk, root2, 8)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "CCCCCCCC" {
		t.Fatalf("after recovery root = %q, want CCCCCCCC", got)
	}
}

// runHashtableWorkload performs the standard crash-test workload: create a
// table with two pre-existing keys, then (under injection) update one and
// insert another.
func setupCrashTable(t *testing.T) (*pmem.Device, *pmem.Mapping, *Hashtable, PMID) {
	t.Helper()
	dev, mp, p := crashRig(t, 16<<20)
	clk := new(sim.Clock)
	var htID PMID
	tx, err := p.Begin(clk)
	if err != nil {
		t.Fatal(err)
	}
	htID, err = CreateHashtable(tx, 16)
	if err != nil {
		t.Fatal(err)
	}
	root, _ := p.Root()
	if err := tx.WriteU64(root, uint64(htID)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	ht, err := OpenHashtable(clk, p, htID)
	if err != nil {
		t.Fatal(err)
	}
	if err := ht.Put(clk, []byte("stable"), []byte("old-stable")); err != nil {
		t.Fatal(err)
	}
	if err := ht.Put(clk, []byte("victim"), []byte("old-victim")); err != nil {
		t.Fatal(err)
	}
	return dev, mp, ht, htID
}

// TestCrashSweepHashtablePut kills the device after every possible persist
// count during an update+insert pair, crashes with each adversary mode, and
// verifies the recovered pool and table pass their structural checks and the
// table is always in a consistent state: "stable" is untouched, "victim"
// holds exactly the old or the new value, and "fresh" is either fully present
// or fully absent.
func TestCrashSweepHashtablePut(t *testing.T) {
	modes := []pmem.CrashMode{pmem.CrashLoseAll, pmem.CrashKeepAll, pmem.CrashRandom}
	rng := rand.New(rand.NewSource(31337))
	for _, mode := range modes {
		for k := int64(0); ; k++ {
			dev, mp, ht, htID := setupCrashTable(t)
			clk := new(sim.Clock)
			dev.ArmCrashAtOp(k, 0)

			err1 := ht.Put(clk, []byte("victim"), []byte("new-victim"))
			var err2 error
			if err1 == nil {
				err2 = ht.Put(clk, []byte("fresh"), []byte("new-fresh"))
			}
			completed := err1 == nil && err2 == nil
			if err1 != nil && !errors.Is(err1, pmem.ErrFailed) {
				t.Fatalf("mode %v k=%d: unexpected error %v", mode, k, err1)
			}
			if err2 != nil && !errors.Is(err2, pmem.ErrFailed) {
				t.Fatalf("mode %v k=%d: unexpected error %v", mode, k, err2)
			}

			dev.Crash(mode, rng)
			p2, err := Open(clk, mp)
			if err != nil {
				t.Fatalf("mode %v k=%d: recovery failed: %v", mode, k, err)
			}
			ht2, err := OpenHashtable(clk, p2, htID)
			if err != nil {
				t.Fatalf("mode %v k=%d: reopen table: %v", mode, k, err)
			}
			// The structural pass: allocator, lanes and every chain of the
			// table hold their invariants after recovery.
			if vs := append(p2.Verify(clk), ht2.Verify(clk)...); len(vs) > 0 {
				t.Fatalf("mode %v k=%d: recovered pool violates %v", mode, k, vs)
			}

			assertValue := func(key string, allowed ...string) {
				v, ok, err := ht2.Get(clk, []byte(key))
				if err != nil {
					t.Fatalf("mode %v k=%d: Get(%s): %v", mode, k, key, err)
				}
				for _, a := range allowed {
					if a == "" && !ok {
						return
					}
					if ok && string(v) == a {
						return
					}
				}
				t.Fatalf("mode %v k=%d: Get(%s) = (%q,%v), allowed %v", mode, k, key, v, ok, allowed)
			}
			assertValue("stable", "old-stable")
			assertValue("victim", "old-victim", "new-victim")
			assertValue("fresh", "", "new-fresh")
			if completed {
				// Injection never fired: both puts committed, so the new
				// state must be fully visible — and the sweep is done.
				assertValue("victim", "new-victim")
				assertValue("fresh", "new-fresh")
				break
			}
		}
	}
}

// fillExtent leaves arena 0's current extent with a tail of at least one and
// fewer than 32 minimum blocks, so the next 2 KB block it carves reserves a
// new extent and retires the tail.
func fillExtent(p *Pool, clk *sim.Clock) error {
	tx, err := p.Begin(clk)
	if err != nil {
		return err
	}
	for {
		rem := p.arenas[0].cur.size
		n := int64(maxClassBlock - blockHeaderSize)
		if rem < maxClassBlock+minBlock {
			if rem < maxClassBlock {
				return tx.Commit()
			}
			n = minBlock - blockHeaderSize
		}
		if _, err := p.Alloc(tx, n); err != nil {
			return err
		}
	}
}

// freeHuge puts a free block of 64 KiB on the huge list, for allocations to
// split.
func freeHuge(p *Pool, clk *sim.Clock) error {
	tx, err := p.Begin(clk)
	if err != nil {
		return err
	}
	id, err := p.Alloc(tx, 64<<10)
	if err == nil {
		err = tx.Commit()
	}
	if err == nil {
		tx, err = p.Begin(clk)
	}
	if err == nil {
		err = p.Free(tx, id)
	}
	if err != nil {
		return err
	}
	return tx.Commit()
}

// TestCrashSweepAllocatorConsistency verifies that after a crash at any
// persist point during allocator traffic, recovery leaves the allocator
// usable and the heap conserved. The traffic is alloc/free/alloc in one
// transaction, a transaction that reserves a fresh class extent and retires
// the old one's tail, one that takes an exact huge extent, one that does
// both and aborts, the same three blocks reserved outside a transaction —
// each split's two headers persisted — and then claimed in one, and two
// splits of a huge free block that abort, so each given-back block merges
// into what its split left (pmdk.alloc.merge). After every recovery the pool verifies clean, every byte
// up to the brk is exactly one block (no leaked extent), a reopen
// rebuilds the same free blocks, and new allocations succeed without
// overlapping a block committed before the crash.
func TestCrashSweepAllocatorConsistency(t *testing.T) {
	cases := []struct {
		name  string
		setup func(*Pool, *sim.Clock) error
		sizes []int64 // allocated in one transaction, the 2nd freed when free
		free  bool
		abort bool
		// reserve: Reserve every block first, then Claim them in the
		// transaction.
		reserve bool
	}{
		{name: "alloc-free-alloc", sizes: []int64{3000, 100}, free: true},
		{name: "class-extent", setup: fillExtent, sizes: []int64{maxClassBlock - blockHeaderSize}},
		{name: "huge-extent", sizes: []int64{100_000}},
		{name: "both-abort", setup: fillExtent, sizes: []int64{maxClassBlock - blockHeaderSize, 100_000}, abort: true},
		{name: "reserve-claim", setup: fillExtent, sizes: []int64{maxClassBlock - blockHeaderSize, 100_000, 100}, reserve: true},
		{name: "split-abort", setup: freeHuge, sizes: []int64{5000, 100}, abort: true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			for k := int64(0); ; k++ {
				if crashSweepAllocator(t, k, c.setup, c.sizes, c.free, c.abort, c.reserve) {
					break
				}
				if k > 2000 {
					t.Fatal("crash sweep did not terminate; workload never completes")
				}
			}
		})
	}
}

// crashSweepAllocator runs one point of TestCrashSweepAllocatorConsistency:
// the workload with the device killed at its k-th persist, a crash, recovery
// and the checks. It reports whether the workload ran to its end.
func crashSweepAllocator(t *testing.T, k int64, setup func(*Pool, *sim.Clock) error, sizes []int64, free, abort, reserve bool) bool {
	t.Helper()
	dev, mp, p := crashRig(t, 16<<20)
	clk := new(sim.Clock)

	// Committed baseline allocation holding a sentinel payload.
	var keeper PMID
	tx, err := p.Begin(clk)
	if err != nil {
		t.Fatal(err)
	}
	if keeper, err = p.Alloc(tx, 500); err != nil {
		t.Fatal(err)
	}
	root, _ := p.Root()
	if err := tx.WriteU64(root, uint64(keeper)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	sentinel := []byte("sentinel-payload-1234567890")
	if err := p.StoreBytesAt(clk, keeper, sentinel, true, ptTest); err != nil {
		t.Fatal(err)
	}
	if setup != nil {
		if err := setup(p, clk); err != nil {
			t.Fatal(err)
		}
	}

	dev.ArmCrashAtOp(k, 0)
	completed := func() bool {
		var reserved []PMID
		for _, n := range sizes {
			if !reserve {
				break
			}
			id, err := p.Reserve(clk, n)
			if err != nil {
				return false
			}
			reserved = append(reserved, id)
		}
		tx, err := p.Begin(clk)
		if err != nil {
			return false
		}
		for i, n := range sizes {
			var id PMID
			if reserve {
				id, err = reserved[i], p.Claim(tx, reserved[i])
			} else {
				id, err = p.Alloc(tx, n)
			}
			if err == nil && free && i == 0 {
				err = p.Free(tx, id)
			}
			if err != nil {
				tx.Abort()
				return false
			}
		}
		if abort {
			return tx.Abort() == nil
		}
		return tx.Commit() == nil
	}()

	dev.Crash(pmem.CrashRandom, rand.New(rand.NewSource(k)))
	p2, err := Open(clk, mp)
	if err != nil {
		t.Fatalf("k=%d: recovery failed: %v", k, err)
	}
	if vs := p2.Verify(clk); len(vs) != 0 {
		t.Fatalf("k=%d: recovered pool has violations: %v", k, vs)
	}
	census := heapCensus(t, k, p2)
	p3, err := Open(clk, mp)
	if err != nil {
		t.Fatalf("k=%d: reopen: %v", k, err)
	}
	for _, q := range []*Pool{p2, p3} {
		if got := listedFree(q); !slices.Equal(got, census) {
			t.Fatalf("k=%d: free lists hold %v, the heap %v", k, got, census)
		}
	}
	// Sentinel must be intact and findable through the root.
	root2, _ := p2.Root()
	id, err := p2.ReadU64(clk, root2)
	if err != nil {
		t.Fatal(err)
	}
	got, err := p2.ReadBytes(clk, PMID(id), int64(len(sentinel)))
	if err != nil {
		t.Fatalf("k=%d: sentinel read: %v", k, err)
	}
	if string(got) != string(sentinel) {
		t.Fatalf("k=%d: sentinel corrupted: %q", k, got)
	}
	// Allocator must still work and respect the sentinel block.
	tx2, err := p2.Begin(clk)
	if err != nil {
		t.Fatal(err)
	}
	nb, err := p2.Alloc(tx2, 500)
	if err != nil {
		t.Fatalf("k=%d: post-recovery alloc: %v", k, err)
	}
	us, err := p2.UsableSize(clk, nb)
	if err != nil || us < 500 {
		t.Fatalf("k=%d: post-recovery usable size %d err %v", k, us, err)
	}
	if overlaps(int64(id), 500, int64(nb), us) {
		t.Fatalf("k=%d: post-recovery alloc [%d,%d) overlaps sentinel [%d,%d)",
			k, nb, int64(nb)+us, id, int64(id)+500)
	}
	if err := tx2.Commit(); err != nil {
		t.Fatal(err)
	}
	return completed
}

// heapCensus walks the heap by its headers, independently of the walk Open
// runs, and checks conservation: every byte of [heapOff, brk) is exactly one
// block, allocated or free, so no extent leaked. It returns the free blocks in
// address order.
func heapCensus(t *testing.T, k int64, p *Pool) []freeBlock {
	t.Helper()
	clk := new(sim.Clock)
	brk, err := p.HeapUsed(clk)
	if err != nil {
		t.Fatal(err)
	}
	brk += p.heapOff
	var alloc, free int64
	var frees []freeBlock
	for off := p.heapOff; off < brk; {
		size, state, err := p.blockHeader(clk, PMID(off+blockHeaderSize))
		if err != nil || size < minBlock || off+size > brk || (state != stateAlloc && state != stateFree) {
			t.Fatalf("k=%d: heap not conserved: the header at %d reads size %d, state %#x (brk %d, %v)",
				k, off, size, state, brk, err)
		}
		if state == stateFree {
			free += size
			frees = append(frees, freeBlock{PMID(off + blockHeaderSize), size})
		} else {
			alloc += size
		}
		off += size
	}
	if brk-p.heapOff != alloc+free {
		t.Fatalf("k=%d: brk-heapOff %d != allocated %d + free %d", k, brk-p.heapOff, alloc, free)
	}
	return frees
}

// listedFree returns what every arena's free lists hold, in address order.
func listedFree(p *Pool) []freeBlock {
	var out []freeBlock
	for i := range p.arenas {
		a := &p.arenas[i]
		for c, l := range a.class {
			for _, id := range l {
				out = append(out, freeBlock{id, blockSizeOf(c)})
			}
		}
		out = append(out, a.huge...)
	}
	slices.SortFunc(out, func(x, y freeBlock) int { return int(x.id - y.id) })
	return out
}

func overlaps(aOff, aLen, bOff, bLen int64) bool {
	return aOff < bOff+bLen && bOff < aOff+aLen
}

// TestCrashDuringRecovery crashes the recovery itself (recovery must be
// idempotent: re-running it after another crash still converges).
func TestCrashDuringRecovery(t *testing.T) {
	for k := int64(0); ; k++ {
		dev, mp, p := crashRig(t, 8<<20)
		clk := new(sim.Clock)
		root, _ := p.Root()
		if err := p.StoreBytesAt(clk, root, []byte("XXXXXXXX"), true, ptTest); err != nil {
			t.Fatal(err)
		}
		tx, err := p.Begin(clk)
		if err != nil {
			t.Fatal(err)
		}
		if err := tx.WriteU64(root, u64("YYYYYYYY")); err != nil {
			t.Fatal(err)
		}
		// Crash without commit, then crash again during recovery.
		dev.Crash(pmem.CrashKeepAll, nil)
		dev.ArmCrashAtOp(k, 0)
		_, err = Open(clk, mp)
		recovered := err == nil
		if err != nil && !errors.Is(err, pmem.ErrFailed) {
			t.Fatalf("k=%d: unexpected recovery error: %v", k, err)
		}
		dev.Crash(pmem.CrashKeepAll, nil)
		p3, err := Open(clk, mp)
		if err != nil {
			t.Fatalf("k=%d: second recovery failed: %v", k, err)
		}
		root3, _ := p3.Root()
		got, err := p3.ReadBytes(clk, root3, 8)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != "XXXXXXXX" {
			t.Fatalf("k=%d: after double recovery root = %q, want XXXXXXXX", k, got)
		}
		if recovered {
			break
		}
		if k > 500 {
			t.Fatal("recovery crash sweep did not terminate")
		}
	}
}

func TestFailAfterPersistsSurfacesErrFailed(t *testing.T) {
	dev, _, p := crashRig(t, 8<<20)
	clk := new(sim.Clock)
	dev.ArmCrashAtOp(0, 0)
	tx, err := p.Begin(clk)
	if err != nil || dev.Failed() {
		t.Fatalf("Begin: err = %v, failed = %v; it must not touch the device", err, dev.Failed())
	}
	root, _ := p.Root()
	if err := tx.WriteU64(root, 1); !errors.Is(err, pmem.ErrFailed) {
		t.Fatalf("err = %v, want ErrFailed (the first Add persists its entry)", err)
	}
	if !dev.Failed() {
		t.Fatal("device not marked failed")
	}
	// On a dead device Abort undoes nothing in software and still releases
	// the lane: every one of the pool's lanes can go through it.
	if err := tx.Abort(); !errors.Is(err, pmem.ErrFailed) {
		t.Fatalf("Abort on a dead device: %v, want ErrFailed", err)
	}
	for i := 0; i < 2*p.lanes; i++ {
		tx, _ := p.Begin(clk)
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestRecoveredPoolPassesSmokeWorkload(t *testing.T) {
	dev, mp, ht, htID := setupCrashTable(t)
	clk := new(sim.Clock)
	dev.ArmCrashAtOp(7, 0)
	_ = ht.Put(clk, []byte("victim"), []byte("new-victim"))
	dev.Crash(pmem.CrashRandom, rand.New(rand.NewSource(5)))
	p2, err := Open(clk, mp)
	if err != nil {
		t.Fatal(err)
	}
	ht2, err := OpenHashtable(clk, p2, htID)
	if err != nil {
		t.Fatal(err)
	}
	// The recovered table must accept a full workload.
	for i := 0; i < 50; i++ {
		k := []byte(fmt.Sprintf("post-%d", i))
		if err := ht2.Put(clk, k, []byte("v")); err != nil {
			t.Fatalf("post-recovery Put %d: %v", i, err)
		}
	}
	n, err := ht2.Len(clk)
	if err != nil {
		t.Fatal(err)
	}
	if n < 50 {
		t.Fatalf("post-recovery Len = %d, want >= 50", n)
	}
}

// TestCrashMatrixBatchedAlloc drives the batched-allocation pattern the
// parallel store engine relies on: one transaction allocates a batch of
// blocks (mixed class and huge sizes) and publishes every PMID into the root
// object before committing. The matrix sweeps the power failure through
// every persist point under each crash adversary; recovery must always leave
// all-or-nothing — either every pointer is published and every block usable,
// or none are.
func TestCrashMatrixBatchedAlloc(t *testing.T) {
	sizes := []int64{100, 2000, 5000, 64, 300, 9000}
	modes := []struct {
		name string
		mode pmem.CrashMode
	}{
		{"loseall", pmem.CrashLoseAll},
		{"keepall", pmem.CrashKeepAll},
		{"random", pmem.CrashRandom},
	}
	rng := rand.New(rand.NewSource(7))
	for _, tc := range modes {
		t.Run(tc.name, func(t *testing.T) {
			for k := int64(0); ; k++ {
				dev, mp, p := crashRig(t, 16<<20)
				clk := new(sim.Clock)
				root, _ := p.Root()

				dev.ArmCrashAtOp(k, 0)
				completed := func() bool {
					tx, err := p.Begin(clk)
					if err != nil {
						return false
					}
					ids := make([]PMID, len(sizes))
					for i, sz := range sizes {
						id, err := p.Alloc(tx, sz)
						if err != nil {
							tx.Abort()
							return false
						}
						ids[i] = id
					}
					for i, id := range ids {
						if err := tx.WriteU64(root+PMID(8*i), uint64(id)); err != nil {
							tx.Abort()
							return false
						}
					}
					return tx.Commit() == nil
				}()

				dev.Crash(tc.mode, rng)
				p2, err := Open(clk, mp)
				if err != nil {
					t.Fatalf("k=%d: recovery failed: %v", k, err)
				}
				root2, _ := p2.Root()
				published := 0
				for i := range sizes {
					w, err := p2.ReadU64(clk, root2+PMID(8*i))
					if err != nil {
						t.Fatal(err)
					}
					if w == 0 {
						continue
					}
					published++
					if n, err := p2.UsableSize(clk, PMID(w)); err != nil || n < sizes[i] {
						t.Fatalf("k=%d: published block %d unusable (size %d, err %v)", k, i, n, err)
					}
				}
				if published != 0 && published != len(sizes) {
					t.Fatalf("k=%d: torn batch: %d of %d pointers published", k, published, len(sizes))
				}
				if completed && published != len(sizes) {
					t.Fatalf("k=%d: committed batch lost (%d published)", k, published)
				}
				if completed {
					break
				}
				if k > 5000 {
					t.Fatal("batched alloc crash sweep did not terminate")
				}
			}
		})
	}
}
