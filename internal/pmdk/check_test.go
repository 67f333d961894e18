package pmdk

import (
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
	"testing"

	"pmemcpy/internal/pmem"
	"pmemcpy/internal/sim"
)

func newClock() *sim.Clock { return new(sim.Clock) }

// buildCheckedTable creates a pool with a hashtable holding a few keys and
// returns everything a corruption test needs.
func buildCheckedTable(t *testing.T) (*Pool, *Hashtable) {
	t.Helper()
	p, _, clk := newTestPool(t, 0)
	tx, err := p.Begin(clk)
	if err != nil {
		t.Fatal(err)
	}
	ht, err := CreateHashtable(tx, 64)
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	h, err := OpenHashtable(clk, p, ht)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		k := fmt.Sprintf("key-%d", i)
		v := strings.Repeat("v", 10+i)
		if err := h.Put(clk, []byte(k), []byte(v)); err != nil {
			t.Fatal(err)
		}
	}
	return p, h
}

func hasViolation(vs []Violation, invariant string) bool {
	for _, v := range vs {
		if v.Invariant == invariant {
			return true
		}
	}
	return false
}

func TestVerifyCleanPool(t *testing.T) {
	p, h := buildCheckedTable(t)
	c0 := newClock()
	if vs := p.Verify(c0); len(vs) != 0 {
		t.Fatalf("clean pool has violations: %v", vs)
	}
	if vs := h.Verify(c0); len(vs) != 0 {
		t.Fatalf("clean hashtable has violations: %v", vs)
	}
}

func TestVerifyDetectsActiveLane(t *testing.T) {
	p, _ := buildCheckedTable(t)
	clk := newClock()
	tx, err := p.Begin(clk)
	if err != nil {
		t.Fatal(err)
	}
	// Begin touches no persistent state; a lane is live from its first entry.
	if vs := p.Verify(clk); len(vs) != 0 {
		t.Fatalf("transaction without a logged range reported: %v", vs)
	}
	root, _ := p.Root()
	if err := tx.WriteU64(root, 7); err != nil {
		t.Fatal(err)
	}
	vs := p.Verify(clk)
	if !hasViolation(vs, "lane.idle") {
		t.Fatalf("open transaction not reported, got %v", vs)
	}
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
	if vs := p.Verify(clk); len(vs) != 0 {
		t.Fatalf("violations after abort: %v", vs)
	}
}

func TestVerifyDetectsBadBrk(t *testing.T) {
	p, _ := buildCheckedTable(t)
	clk := newClock()
	// Scribble the brk word past the heap end.
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(p.heapEnd+4096))
	if err := p.StoreBytesAt(clk, PMID(p.allocOff), b[:], true, ptTest); err != nil {
		t.Fatal(err)
	}
	if vs := p.Verify(clk); !hasViolation(vs, "alloc.brk") {
		t.Fatalf("bad brk not reported, got %v", vs)
	}
}

// TestHostileHeaderEndsOpen: the heap walk Open rebuilds the free lists from
// trusts no header. One bad header — a size of 0, a size running past the
// brk, a state that is neither alloc nor free, a smashed header of the tail
// of an arena's current extent, which is a free block like any other — ends
// Open promptly in ErrCorrupt, and Verify reports alloc.heap at it. A media
// error meeting Open ends it in ErrMedia: this device fails persists, never
// reads, so the row fails recovery's rollback, and the next Open succeeds.
func TestHostileHeaderEndsOpen(t *testing.T) {
	for _, row := range []string{"size-0", "size-past-brk", "bad-state", "extent-tail", "media-error"} {
		t.Run(row, func(t *testing.T) {
			p, mp, clk := newTestPool(t, 1<<20)
			var ids [4]PMID
			withTx(t, p, func(tx *Tx) (err error) {
				for i := range ids {
					if ids[i], err = p.Alloc(tx, 100<<i); err != nil {
						return err
					}
				}
				return nil
			})
			withTx(t, p, func(tx *Tx) error { return p.Free(tx, ids[1]) })
			victim := ids[2] - blockHeaderSize
			brk, err := p.ReadU64(clk, PMID(p.allocOff))
			if err != nil {
				t.Fatal(err)
			}
			want := ErrCorrupt
			switch row {
			case "size-0":
				poke(t, p, victim, 0)
			case "size-past-brk":
				poke(t, p, victim, brk-uint64(victim)+minBlock)
			case "bad-state":
				poke(t, p, victim+8, 0xBAD)
			case "extent-tail":
				poke(t, p, p.arenas[0].cur.id-blockHeaderSize, 0)
			case "media-error":
				// A live lane for recovery to roll back, and its first persist
				// failing past the retry budget.
				tx, err := p.Begin(clk)
				if err != nil {
					t.Fatal(err)
				}
				if err := tx.WriteU64(ids[0], 1); err != nil {
					t.Fatal(err)
				}
				mp.Device().InjectTransient(0, 5)
				want = pmem.ErrMedia
			}
			err = within(t, "Open", func() error { _, err := Open(clk, mp); return err })
			if !errors.Is(err, want) {
				t.Fatalf("Open over a %s header: %v, want %v", row, err, want)
			}
			if row == "media-error" {
				p2, err := Open(clk, mp)
				if err != nil {
					t.Fatalf("Open after the media error passed: %v", err)
				}
				if vs := p2.Verify(clk); len(vs) != 0 {
					t.Fatalf("recovered pool has violations: %v", vs)
				}
				return
			}
			if vs := p.Verify(clk); !hasViolation(vs, "alloc.heap") {
				t.Fatalf("Verify over a %s header = %v, want alloc.heap", row, vs)
			}
		})
	}
}

// TestVerifyCountsCurrentExtent: an arena's half-used current extent is a free
// block on media that no list holds, and Verify counts it as held.
func TestVerifyCountsCurrentExtent(t *testing.T) {
	p, _, clk := newTestPool(t, 0)
	withTx(t, p, func(tx *Tx) error { _, err := p.Alloc(tx, 100); return err })
	if cur := p.arenas[0].cur; cur.size == 0 || cur.size >= p.extent {
		t.Fatalf("current extent %+v is not half used (extent %d)", cur, p.extent)
	}
	if vs := p.Verify(clk); len(vs) != 0 {
		t.Fatalf("pool with a half-used current extent has violations: %v", vs)
	}
}

func TestVerifyDetectsFreeStateCorruption(t *testing.T) {
	p, _ := buildCheckedTable(t)
	clk := newClock()
	tx, err := p.Begin(clk)
	if err != nil {
		t.Fatal(err)
	}
	id, err := p.Alloc(tx, 48)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Free(tx, id); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	// Flip the freed block's state word back to allocated behind the free
	// list's back: the heap then holds one free block fewer than the lists.
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], stateAlloc)
	if err := p.StoreBytesAt(clk, id-8, b[:], true, ptTest); err != nil {
		t.Fatal(err)
	}
	if vs := p.Verify(clk); !hasViolation(vs, "alloc.freestate") {
		t.Fatalf("free-state corruption not reported, got %v", vs)
	}
}

// tornEntry corrupts one hashtable entry's metadata in place, simulating a
// torn metadata record, and returns the entry's key.
func tornEntry(t *testing.T, p *Pool, h *Hashtable) string {
	t.Helper()
	clk := newClock()
	// Find the first nonempty bucket and corrupt its head entry's klen.
	for b := uint64(0); b < h.nbuckets; b++ {
		cur, err := p.ReadU64(clk, h.head+htHeaderSize+PMID(8*b))
		if err != nil {
			t.Fatal(err)
		}
		if cur == 0 {
			continue
		}
		var bad [8]byte
		binary.LittleEndian.PutUint64(bad[:], 1<<40) // absurd klen
		if err := p.StoreBytesAt(clk, PMID(cur)+entryKlen, bad[:], true, ptTest); err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("bucket %d entry %d", b, cur)
	}
	t.Fatal("no nonempty bucket found")
	return ""
}

func TestVerifyDetectsTornEntry(t *testing.T) {
	p, h := buildCheckedTable(t)
	tornEntry(t, p, h)
	clk := newClock()
	vs := h.Verify(clk)
	if !hasViolation(vs, "ht.entry") {
		t.Fatalf("torn entry not reported, got %v", vs)
	}
}

func TestVerifyDetectsHashMismatch(t *testing.T) {
	p, h := buildCheckedTable(t)
	clk := newClock()
	for b := uint64(0); b < h.nbuckets; b++ {
		cur, err := p.ReadU64(clk, h.head+htHeaderSize+PMID(8*b))
		if err != nil {
			t.Fatal(err)
		}
		if cur == 0 {
			continue
		}
		var bad [8]byte
		binary.LittleEndian.PutUint64(bad[:], 0xDEAD)
		if err := p.StoreBytesAt(clk, PMID(cur)+entryHash, bad[:], true, ptTest); err != nil {
			t.Fatal(err)
		}
		break
	}
	if vs := h.Verify(clk); !hasViolation(vs, "ht.hash") {
		t.Fatalf("hash mismatch not reported, got %v", vs)
	}
}

func TestVerifyDetectsOversizedVlen(t *testing.T) {
	p, h := buildCheckedTable(t)
	clk := newClock()
	for b := uint64(0); b < h.nbuckets; b++ {
		cur, err := p.ReadU64(clk, h.head+htHeaderSize+PMID(8*b))
		if err != nil {
			t.Fatal(err)
		}
		if cur == 0 {
			continue
		}
		var bad [8]byte
		binary.LittleEndian.PutUint64(bad[:], 1<<30)
		if err := p.StoreBytesAt(clk, PMID(cur)+entryVlen, bad[:], true, ptTest); err != nil {
			t.Fatal(err)
		}
		break
	}
	if vs := h.Verify(clk); !hasViolation(vs, "ht.value") {
		t.Fatalf("oversized vlen not reported, got %v", vs)
	}
}

// TestMediaErrorAbortsTransactionCleanly: a persist that exhausts the
// device's bounded retry budget surfaces ErrMedia through the transaction
// layer. Unlike an injected power failure the device stays alive, so the
// transaction must abort and roll back, the pool must still verify clean,
// and the same operation re-issued must succeed.
func TestMediaErrorAbortsTransactionCleanly(t *testing.T) {
	p, mp, clk := newTestPool(t, 0)
	tx, err := p.Begin(clk)
	if err != nil {
		t.Fatal(err)
	}
	htID, err := CreateHashtable(tx, 16)
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	h, err := OpenHashtable(clk, p, htID)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Put(clk, []byte("k"), []byte("old")); err != nil {
		t.Fatal(err)
	}

	// The very next persist reports more consecutive transient failures than
	// the retry budget absorbs: it escalates to ErrMedia mid-transaction.
	mp.Device().InjectTransient(0, 5)
	err = h.Put(clk, []byte("k"), []byte("new"))
	if !errors.Is(err, pmem.ErrMedia) {
		t.Fatalf("Put under media error = %v, want ErrMedia", err)
	}
	if mp.Device().Failed() {
		t.Fatal("ErrMedia must not kill the device")
	}
	if vs := p.Verify(clk); len(vs) != 0 {
		t.Fatalf("pool has violations after aborted transaction: %v", vs)
	}
	if vs := h.Verify(clk); len(vs) != 0 {
		t.Fatalf("hashtable has violations after aborted transaction: %v", vs)
	}
	v, ok, err := h.Get(clk, []byte("k"))
	if err != nil || !ok || string(v) != "old" {
		t.Fatalf("Get after rollback = (%q, %v, %v), want old value intact", v, ok, err)
	}

	// The failure was transient: the same update re-issued goes through.
	if err := h.Put(clk, []byte("k"), []byte("new")); err != nil {
		t.Fatalf("re-issued Put after ErrMedia: %v", err)
	}
	if v, ok, _ := h.Get(clk, []byte("k")); !ok || string(v) != "new" {
		t.Fatalf("Get after retry = (%q, %v), want new value", v, ok)
	}

	// Same again but mid-transaction (past Begin), so the undo log has
	// entries and the abort path actually rolls back: "mid" is as long as
	// "new", so this Put is one pre-image (persist 0), then the in-place
	// rewrite's commit flush (persist 1).
	mp.Device().InjectTransient(1, 5)
	if err := h.Put(clk, []byte("k"), []byte("mid")); !errors.Is(err, pmem.ErrMedia) {
		t.Fatalf("mid-tx Put under media error = %v, want ErrMedia", err)
	}
	if vs := p.Verify(clk); len(vs) != 0 {
		t.Fatalf("pool has violations after mid-tx rollback: %v", vs)
	}
	if v, ok, _ := h.Get(clk, []byte("k")); !ok || string(v) != "new" {
		t.Fatalf("Get after mid-tx rollback = (%q, %v), want previous value", v, ok)
	}
}
