package pmdk

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"pmemcpy/internal/pmem"
	"pmemcpy/internal/sim"
)

// Tests of the hashtable's update primitive (Update / Commit's three outcomes)
// and of the two things that ride with it: Get copying under the bucket lock,
// and a transaction's home arena following the caller's rank.

// TestGetCopiesUnderBucketLock races 2 writers alternating two values of one
// key against 2 readers that hold no lock of their own. Every Get must return
// one of the two values whole. With values of one length every overwrite
// rewrites the value block in place; with values of two size classes every
// overwrite relinks, and the block one writer frees the other reuses. A Get
// that copied after dropping the bucket lock reads torn bytes in both (and is
// a data race under -race).
func TestGetCopiesUnderBucketLock(t *testing.T) {
	for _, tc := range []struct {
		name string
		a, b []byte
	}{
		{"same-length", bytes.Repeat([]byte{'a'}, 21), bytes.Repeat([]byte{'b'}, 21)},
		{"two-size-classes", bytes.Repeat([]byte{'a'}, 21), bytes.Repeat([]byte{'b'}, 100)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ht, _, clk := newTestTable(t, 16)
			key := []byte("contended")
			if err := ht.Put(clk, key, tc.a); err != nil {
				t.Fatal(err)
			}
			const rounds = 20000
			var wg sync.WaitGroup
			errs := make(chan error, 4)
			for w := 0; w < 2; w++ {
				wg.Add(2)
				go func(w int) {
					defer wg.Done()
					clk := &sim.Clock{Rank: w}
					for i := 0; i < rounds; i++ {
						v := tc.a
						if (i+w)%2 == 1 {
							v = tc.b
						}
						if err := ht.Put(clk, key, v); err != nil {
							errs <- err
							return
						}
					}
				}(w)
				go func(w int) {
					defer wg.Done()
					clk := &sim.Clock{Rank: w}
					for i := 0; i < rounds; i++ {
						v, ok, err := ht.Get(clk, key)
						if err != nil || !ok {
							errs <- fmt.Errorf("Get: ok=%v err=%v", ok, err)
							return
						}
						if !bytes.Equal(v, tc.a) && !bytes.Equal(v, tc.b) {
							errs <- fmt.Errorf("round %d: Get returned torn value %q", i, v)
							return
						}
					}
				}(w)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Error(err)
			}
			if vs := append(ht.p.Verify(clk), ht.Verify(clk)...); len(vs) != 0 {
				t.Fatalf("violations after the race: %v", vs)
			}
		})
	}
}

// TestCommitOutcomes pins which of Commit's three forms a Put takes, what each
// costs the allocator, and that all of them publish the value.
func TestCommitOutcomes(t *testing.T) {
	ht, p, clk := newTestTable(t, 16)
	key := []byte("k")
	for _, step := range []struct {
		val                           string
		inPlace, relinked, inserted   int64
		allocs, frees, undoPerInPlace int64
	}{
		{"first", 0, 0, 1, 2, 0, 0},  // entry + value block
		{"again", 1, 0, 0, 0, 0, 1},  // same length: one undo entry, no allocator traffic
		{"longer", 0, 1, 0, 1, 1, 0}, // new block, old one freed
		{"", 0, 1, 0, 1, 1, 0},
		{"", 1, 0, 0, 0, 0, 0}, // empty over empty: nothing to pre-image
	} {
		before := p.Stats()
		if err := ht.Put(clk, key, []byte(step.val)); err != nil {
			t.Fatal(err)
		}
		s := p.Stats()
		got := [5]int64{s.HTInPlace - before.HTInPlace, s.HTRelinked - before.HTRelinked,
			s.HTInserted - before.HTInserted, s.Allocs - before.Allocs, s.Frees - before.Frees}
		want := [5]int64{step.inPlace, step.relinked, step.inserted, step.allocs, step.frees}
		if got != want {
			t.Errorf("Put(%q): in-place/relinked/inserted/allocs/frees = %v, want %v", step.val, got, want)
		}
		if step.inPlace == 1 {
			if n := s.UndoEntries - before.UndoEntries; n != step.undoPerInPlace {
				t.Errorf("Put(%q) in place logged %d undo entries, want %d", step.val, n, step.undoPerInPlace)
			}
		}
		if v, ok, err := ht.Get(clk, key); err != nil || !ok || string(v) != step.val {
			t.Fatalf("Get after Put(%q) = (%q, %v, %v)", step.val, v, ok, err)
		}
	}
}

// TestInPlaceNeverFillsTheLane: whether a same-length value is rewritten in
// place is decided by size before anything is logged — a quarter of the lane
// at most, and never more than the transaction has left — so ErrTxLogFull
// cannot surface from an overwrite that relinking would have carried. The
// pool has the smallest lane Create accepts.
func TestInPlaceNeverFillsTheLane(t *testing.T) {
	m := sim.NewMachine(sim.DefaultConfig())
	m.SetConcurrency(1)
	mp, err := pmem.NewMapping(pmem.New(m, 16<<20), 0, 16<<20, false)
	if err != nil {
		t.Fatal(err)
	}
	clk := new(sim.Clock)
	o := DefaultOptions()
	o.LaneLogSize = 4096
	p, err := Create(clk, mp, &o)
	if err != nil {
		t.Fatal(err)
	}
	htID, err := FormatPool(clk, p, 16)
	if err != nil {
		t.Fatal(err)
	}
	ht, err := OpenHashtable(clk, p, htID)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{1, 8, 1000, 1024, 1025, 2048, 4064, 4096, 5000, 64 << 10} {
		key := []byte(fmt.Sprintf("k%d", n))
		for _, fill := range []byte{'x', 'y'} {
			before := p.Stats().HTInPlace
			if err := ht.Put(clk, key, bytes.Repeat([]byte{fill}, n)); err != nil {
				t.Fatalf("Put of %d bytes: %v", n, err)
			}
			if got, want := p.Stats().HTInPlace-before == 1, fill == 'y' && n <= 1024; got != want {
				t.Errorf("overwrite of %d bytes in place = %v, want %v", n, got, want)
			}
		}
		if v, _, _ := ht.Get(clk, key); !bytes.Equal(v, bytes.Repeat([]byte{'y'}, n)) {
			t.Fatalf("value of %d bytes did not read back", n)
		}
	}

	// 150 Frees (one 24-byte entry each) ahead of the Commit leave the lane
	// less than the 1000-byte pre-image needs: the Commit relinks instead of
	// overflowing.
	var blks []PMID
	for range 2 {
		withTx(t, p, func(tx *Tx) error {
			for i := 0; i < 75; i++ {
				id, err := p.Alloc(tx, 32)
				if err != nil {
					return err
				}
				blks = append(blks, id)
			}
			return nil
		})
	}
	u, err := ht.Update(clk, []byte("k1000"))
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range blks {
		if err := u.Free(id); err != nil {
			t.Fatal(err)
		}
	}
	before := p.Stats()
	if err := u.Commit([]byte("k1000"), bytes.Repeat([]byte{'z'}, 1000)); err != nil {
		t.Fatalf("Commit behind 150 Frees: %v", err)
	}
	if s := p.Stats(); s.HTRelinked-before.HTRelinked != 1 || s.HTInPlace != before.HTInPlace {
		t.Errorf("Commit behind 150 Frees did not relink")
	}
	if vs := append(p.Verify(clk), ht.Verify(clk)...); len(vs) != 0 {
		t.Fatalf("violations: %v", vs)
	}
}

// TestUpdateHeapBudget: the cursor is a value, keeps no key, and holds a
// handle on its lane's transaction, so an update costs the Go heap nothing —
// walked for (Update) or found from its hint (UpdateAt).
func TestUpdateHeapBudget(t *testing.T) {
	ht, _, clk := newTestTable(t, 16)
	id, val := "some-variable-id", make([]byte, 21)
	if err := ht.Put(clk, []byte(id), val); err != nil {
		t.Fatal(err)
	}
	_, _, at, err := ht.GetRefAt(clk, []byte(id), Null)
	if err != nil || at == Null {
		t.Fatal(at, err)
	}
	for _, hinted := range []bool{false, true} {
		var oldLen int
		got := testing.AllocsPerRun(100, func() {
			key := []byte(id)
			var u Update
			var err error
			if hinted {
				u, err = ht.UpdateAt(clk, key, at)
			} else {
				u, err = ht.Update(clk, key)
			}
			if err != nil {
				t.Fatal(err)
			}
			oldLen += len(u.Old())
			val[0]++
			if err := u.Commit(key, val); err != nil {
				t.Fatal(err)
			}
		})
		if got != 0 || oldLen == 0 {
			t.Errorf("Update (hinted %v) + Old + Commit in place = %v allocations, want 0", hinted, got)
		}
	}
}

// TestUpdateAbortLeavesOldValue: an aborted update undoes its Frees and leaves
// the key as it was, bucket and lane released.
func TestUpdateAbortLeavesOldValue(t *testing.T) {
	ht, p, clk := newTestTable(t, 16)
	var blk PMID
	withTx(t, p, func(tx *Tx) (err error) {
		blk, err = p.Alloc(tx, 100)
		return err
	})
	if err := ht.Put(clk, []byte("k"), []byte("old")); err != nil {
		t.Fatal(err)
	}
	u, err := ht.Update(clk, []byte("k"))
	if err != nil {
		t.Fatal(err)
	}
	if string(u.Old()) != "old" {
		t.Fatalf("Old = %q", u.Old())
	}
	if err := u.Free(blk); err != nil {
		t.Fatal(err)
	}
	if err := u.Abort(); err != nil {
		t.Fatal(err)
	}
	if _, err := p.UsableSize(clk, blk); err != nil {
		t.Errorf("block freed by an aborted update is not allocated: %v", err)
	}
	if v, ok, _ := ht.Get(clk, []byte("k")); !ok || string(v) != "old" {
		t.Errorf("Get after Abort = (%q, %v)", v, ok)
	}
	if u, err := ht.Update(clk, []byte("absent")); err != nil || u.Old() != nil {
		t.Fatalf("Update(absent) = (Old %q, %v), want nil", u.Old(), err)
	} else if err := u.Abort(); err != nil {
		t.Fatal(err)
	}
	if err := ht.Put(clk, []byte("k"), []byte("new")); err != nil {
		t.Fatalf("Put after Abort: %v", err)
	}
}

// TestCrashSweepUpdateSupersedes crashes a copy-on-write replace done under
// ONE log — the record under "ref" names block A; the update frees A and
// commits a record naming B — at every persist, under every adversary, for a
// same-length record (rewritten in place) and a longer one (relinked). After
// recovery the record is old or new, the block it names is allocated, and the
// block it stopped naming is free exactly when the record is new: never a
// record pointing at a free block, never a block owned twice.
func TestCrashSweepUpdateSupersedes(t *testing.T) {
	rng := rand.New(rand.NewSource(4242))
	for _, pad := range []string{"", "-grown"} {
		for _, mode := range []pmem.CrashMode{pmem.CrashLoseAll, pmem.CrashKeepAll, pmem.CrashRandom} {
			for k := int64(0); ; k++ {
				dev, mp, ht, htID := setupCrashTable(t)
				clk := new(sim.Clock)
				p := ht.p
				var a, b PMID
				withTx(t, p, func(tx *Tx) (err error) {
					if a, err = p.Alloc(tx, 100); err == nil {
						b, err = p.Alloc(tx, 100)
					}
					return err
				})
				oldRec, newRec := fmt.Sprintf("block@%08d", a), fmt.Sprintf("block@%08d%s", b, pad)
				if err := ht.Put(clk, []byte("ref"), []byte(oldRec)); err != nil {
					t.Fatal(err)
				}

				dev.ArmCrashAtOp(k, 0)
				u, err := ht.Update(clk, []byte("ref"))
				if err == nil {
					if err = u.Free(a); err == nil {
						err = u.Commit([]byte("ref"), []byte(newRec))
					} else {
						u.Abort()
					}
				}
				if err != nil && !errors.Is(err, pmem.ErrFailed) {
					t.Fatalf("pad %q mode %v k=%d: %v", pad, mode, k, err)
				}
				dev.Crash(mode, rng)

				p2, oerr := Open(clk, mp)
				if oerr != nil {
					t.Fatalf("pad %q mode %v k=%d: recovery: %v", pad, mode, k, oerr)
				}
				ht2, oerr := OpenHashtable(clk, p2, htID)
				if oerr != nil {
					t.Fatal(oerr)
				}
				if vs := append(p2.Verify(clk), ht2.Verify(clk)...); len(vs) != 0 {
					t.Fatalf("pad %q mode %v k=%d: violations after recovery: %v", pad, mode, k, vs)
				}
				v, ok, gerr := ht2.Get(clk, []byte("ref"))
				if gerr != nil || !ok {
					t.Fatalf("pad %q mode %v k=%d: Get = (%v, %v)", pad, mode, k, ok, gerr)
				}
				isNew := string(v) == newRec
				if !isNew && string(v) != oldRec {
					t.Fatalf("pad %q mode %v k=%d: record %q is neither old nor new", pad, mode, k, v)
				}
				if err == nil && !isNew {
					t.Fatalf("pad %q mode %v k=%d: committed update reads back old", pad, mode, k)
				}
				_, aErr := p2.UsableSize(clk, a)
				_, bErr := p2.UsableSize(clk, b)
				if bErr != nil {
					t.Fatalf("pad %q mode %v k=%d: block B is not allocated: %v", pad, mode, k, bErr)
				}
				if aFree := aErr != nil; aFree != isNew {
					t.Fatalf("pad %q mode %v k=%d: record new=%v but superseded block free=%v", pad, mode, k, isNew, aFree)
				}
				if err == nil {
					break // k is past the update's last persist
				}
			}
		}
	}
}

// TestHomeArenaFollowsRank: a caller's home arena is its clock's rank modulo
// the arena count, whatever order transactions arrive in — so what one of a
// rank's transactions frees its next one reuses, with no steal.
func TestHomeArenaFollowsRank(t *testing.T) {
	m := sim.NewMachine(sim.DefaultConfig())
	m.SetConcurrency(1)
	mp, err := pmem.NewMapping(pmem.New(m, 16<<20), 0, 16<<20, false)
	if err != nil {
		t.Fatal(err)
	}
	o := DefaultOptions()
	o.Arenas = 4
	p, err := Create(new(sim.Clock), mp, &o)
	if err != nil {
		t.Fatal(err)
	}
	for _, rank := range []int{5, 0, 3, 5, 1, 0} {
		clk := &sim.Clock{Rank: rank}
		if got, want := p.home(clk), &p.arenas[rank%4]; got != want {
			t.Errorf("rank %d: home arena is not arena %d", rank, rank%4)
		}
	}
	// Rank 1 allocates in one transaction and frees in the next, with other
	// ranks' transactions arriving in between: its third gets the block back.
	// (A foreign arena's free blocks are still reused before the heap grows,
	// so the other ranks allocate before the Free, not after it.)
	clk := &sim.Clock{Rank: 1}
	var first PMID
	withClockTx := func(clk *sim.Clock, fn func(tx *Tx) error) {
		t.Helper()
		tx, _ := p.Begin(clk)
		if err := fn(tx); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	withClockTx(clk, func(tx *Tx) (err error) { first, err = p.Alloc(tx, 40); return err })
	withClockTx(&sim.Clock{Rank: 2}, func(tx *Tx) error { _, err := p.Alloc(tx, 40); return err })
	withClockTx(new(sim.Clock), func(tx *Tx) error { _, err := p.Alloc(tx, 40); return err })
	withClockTx(clk, func(tx *Tx) error { return p.Free(tx, first) })
	withClockTx(clk, func(tx *Tx) error {
		again, err := p.Alloc(tx, 40)
		if again != first {
			t.Errorf("rank 1 reallocated block %d, want its own freed block %d", again, first)
		}
		return err
	})
	if s := p.Stats(); s.ArenaSteals != 0 {
		t.Errorf("arena steals = %d, want 0", s.ArenaSteals)
	}
}
