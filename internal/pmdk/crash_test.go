package pmdk

import (
	"errors"
	"fmt"
	"math/rand"
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
// verifies the recovered table is always in a consistent state: "stable" is
// untouched, "victim" holds exactly the old or the new value, and "fresh" is
// either fully present or fully absent.
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

// TestCrashSweepAllocatorConsistency verifies that after a crash at any
// persist point during alloc/free traffic, recovery leaves the allocator
// usable: new allocations still succeed and never overlap blocks that were
// committed before the crash.
func TestCrashSweepAllocatorConsistency(t *testing.T) {
	for k := int64(0); ; k++ {
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

		// Injected phase: alloc, free, alloc.
		dev.ArmCrashAtOp(k, 0)
		completed := func() bool {
			tx, err := p.Begin(clk)
			if err != nil {
				return false
			}
			a, err := p.Alloc(tx, 3000)
			if err != nil {
				tx.Abort()
				return false
			}
			if err := p.Free(tx, a); err != nil {
				tx.Abort()
				return false
			}
			if _, err := p.Alloc(tx, 100); err != nil {
				tx.Abort()
				return false
			}
			return tx.Commit() == nil
		}()

		dev.Crash(pmem.CrashRandom, rand.New(rand.NewSource(k)))
		p2, err := Open(clk, mp)
		if err != nil {
			t.Fatalf("k=%d: recovery failed: %v", k, err)
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
		keeperEnd := int64(id) + 500
		if int64(nb) < keeperEnd && keeperEnd > int64(nb) && int64(nb)+us > int64(id) && int64(id) < int64(nb)+us {
			// Ranges overlap only if both conditions hold both ways; compute
			// properly below.
		}
		if overlaps(int64(id), 500, int64(nb), us) {
			t.Fatalf("k=%d: post-recovery alloc [%d,%d) overlaps sentinel [%d,%d)",
				k, nb, int64(nb)+us, id, int64(id)+500)
		}
		if err := tx2.Commit(); err != nil {
			t.Fatal(err)
		}
		if completed {
			break
		}
		if k > 2000 {
			t.Fatal("crash sweep did not terminate; workload never completes")
		}
	}
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
