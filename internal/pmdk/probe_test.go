package pmdk

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"testing"
	"time"

	"pmemcpy/internal/pmem"
	"pmemcpy/internal/sim"
)

// chainTable builds a 1-bucket table holding keys key-0 … key-(n-1), each with
// an 8-byte value. An insert links at the chain's tail, so key-i sits at
// position i+1.
func chainTable(t *testing.T, n int) (*Hashtable, *Pool, *sim.Clock) {
	t.Helper()
	ht, p, clk := newTestTable(t, 1)
	for i := 0; i < n; i++ {
		if err := ht.Put(clk, chainKey(i), []byte("8 bytes.")); err != nil {
			t.Fatal(err)
		}
	}
	return ht, p, clk
}

func chainKey(i int) []byte { return []byte(fmt.Sprintf("key-%d", i)) }

// chainEntries returns the entry PMIDs of bucket b, in chain order.
func chainEntries(t *testing.T, ht *Hashtable, b uint64) []PMID {
	t.Helper()
	var es []PMID
	clk := newClock()
	cur, err := ht.p.ReadU64(clk, ht.head+htHeaderSize+PMID(8*b))
	for ; err == nil && cur != 0; cur, err = ht.p.ReadU64(clk, PMID(cur)+entryNext) {
		es = append(es, PMID(cur))
	}
	if err != nil {
		t.Fatal(err)
	}
	return es
}

// poke stores one word at off, outside any transaction.
func poke(t *testing.T, p *Pool, off PMID, v uint64) {
	t.Helper()
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	if err := p.StoreBytesAt(newClock(), off, b[:], true, ptTest); err != nil {
		t.Fatal(err)
	}
}

// TestProbeAccessesPerEntry holds the access table of a chain walk: every
// entry visited is ONE charged read — 40 bytes, or 40+klen on the entry whose
// hash and klen match — so with k the 1-based position of the match and L the
// chain length a Get hit is k+2 accesses (bucket slot, k entries, the value),
// a miss 1+L, an Update of a present key k+1 (+1 for Old), an insert L+1 and a
// Delete k+1, next to what the allocator and the undo log read on their
// behalf: a bump carve 3 and a Free 2 of their own, and one pre-image read per
// undo entry. Virtual time is held to the nanosecond against the same accesses
// charged one by one to a scratch clock.
func TestProbeAccessesPerEntry(t *testing.T) {
	const (
		klen, vlen = 5, 8 // "key-i", "8 bytes."
		// What a mutation's nested calls read, none of it the walk's. The first
		// carve of a transaction reads bump|limit and pre-images bump|limit and
		// size|state; the second finds bump|limit covered. A Free reads
		// size|state and pre-images the state word. The free lists are DRAM.
		// Linking or unlinking pre-images one word.
		carve1, carve2, free1, free2, link = 1 + 2, 1 + 1, 1 + 1, 1 + 1, 1
	)
	for L := 1; L <= 8; L++ {
		ht, p, clk := chainTable(t, L)
		dev := p.m.Device()
		metaOp := dev.Machine().Config().MetaOp
		// cost is the virtual time of the given accesses, one ChargeRead each.
		cost := func(sizes ...int64) time.Duration {
			var c sim.Clock
			for _, n := range sizes {
				p.m.ChargeRead(&c, n)
			}
			return c.Now()
		}
		// walk is the accesses of a chain walk that visits `visited` entries, the
		// last of them a hash-and-klen match when hit.
		walk := func(visited int, hit bool) []int64 {
			sizes := []int64{8}
			for i := 1; i <= visited; i++ {
				if n := int64(entryKeyStart); hit && i == visited {
					sizes = append(sizes, n+klen)
				} else {
					sizes = append(sizes, n)
				}
			}
			return sizes
		}
		// measure runs fn and checks the accesses and virtual time it charged.
		measure := func(what string, fn func(), reads int64, ns time.Duration) {
			t.Helper()
			r0, t0 := dev.Counters().Reads, clk.Now()
			fn()
			if got := dev.Counters().Reads - r0; got != reads {
				t.Errorf("L=%d %s: %d read accesses, want %d", L, what, got, reads)
			}
			if got := clk.Now() - t0; ns >= 0 && got != ns {
				t.Errorf("L=%d %s: %v virtual, want %v", L, what, got, ns)
			}
		}

		for k := 1; k <= L; k++ {
			key := chainKey(k - 1)
			measure(fmt.Sprintf("Get hit k=%d", k), func() {
				if v, ok, err := ht.Get(clk, key); err != nil || !ok || string(v) != "8 bytes." {
					t.Fatalf("Get(%s) = %q, %v, %v", key, v, ok, err)
				}
			}, int64(k+2), metaOp+cost(append(walk(k, true), vlen)...))
			measure(fmt.Sprintf("GetRef hit k=%d", k), func() {
				if _, n, ok, err := ht.GetRef(clk, key); err != nil || !ok || n != vlen {
					t.Fatalf("GetRef(%s) = %d, %v, %v", key, n, ok, err)
				}
			}, int64(k+1), metaOp+cost(walk(k, true)...))
			var u Update
			measure(fmt.Sprintf("Update k=%d", k), func() {
				var err error
				if u, err = ht.Update(clk, key); err != nil {
					t.Fatal(err)
				}
			}, int64(k+1), metaOp+cost(walk(k, true)...))
			measure("Old", func() { u.Old() }, 1, cost(vlen))
			if err := u.Abort(); err != nil {
				t.Fatal(err)
			}
		}
		measure("Get miss", func() {
			if _, ok, err := ht.Get(clk, []byte("absent")); err != nil || ok {
				t.Fatalf("Get(absent) = %v, %v", ok, err)
			}
		}, int64(1+L), metaOp+cost(walk(L, false)...))

		// The key compare survived: an entry carrying the probe key's hash and
		// klen but other key bytes is visited at the price of a match, and is
		// not one.
		es := chainEntries(t, ht, 0)
		last := es[L-1]
		if err := p.StoreBytesAt(newClock(), last+entryKeyStart, []byte("kex"), true, ptTest); err != nil {
			t.Fatal(err)
		}
		measure("Get hash+klen twin", func() {
			if _, ok, err := ht.Get(clk, chainKey(L-1)); err != nil || ok {
				t.Fatalf("Get of an entry with other key bytes = %v, %v; want absent", ok, err)
			}
		}, int64(1+L), metaOp+cost(walk(L, true)...))
		if err := p.StoreBytesAt(newClock(), last+entryKeyStart, []byte("key"), true, ptTest); err != nil {
			t.Fatal(err)
		}

		// Insert: the walk, then a commit that reads nothing of the chain again.
		measure("insert", func() {
			if err := ht.Put(clk, []byte("fresh"), []byte("8 bytes.")); err != nil {
				t.Fatal(err)
			}
		}, int64(1+L)+carve1+carve2+link, -1)
		if es := chainEntries(t, ht, 0); len(es) != L+1 {
			t.Fatalf("L=%d: chain holds %d entries after the insert", L, len(es))
		}
		// Delete at every position of the (L+1)-chain, last first: the walk
		// alone, next taken from it.
		for k := L + 1; k >= 1; k-- {
			key := []byte("fresh")
			if k <= L {
				key = chainKey(k - 1)
			}
			measure(fmt.Sprintf("Delete k=%d", k), func() {
				if ok, err := ht.Delete(clk, key); err != nil || !ok {
					t.Fatalf("Delete(%s) = %v, %v", key, ok, err)
				}
			}, int64(1+k)+link+free1+free2, -1)
		}
		if n, err := ht.Len(clk); err != nil || n != 0 {
			t.Fatalf("L=%d: Len after deleting every key = %d, %v", L, n, err)
		}
		if vs := append(p.Verify(clk), ht.Verify(clk)...); len(vs) != 0 {
			t.Fatalf("L=%d: violations: %v", L, vs)
		}
	}
	probeKeyPastPoolEnd(t)
}

// TestProbeHintedAccesses holds the hinted lookups (GetRefAt, UpdateAt) to
// their access table on an L=8 chain. A hint naming the key's entry is ONE
// access at every position k — block header, entry header and key, 16+40+klen
// bytes — and returns that entry. A hint naming another key's entry or a freed
// block (one that still holds the key it was deleted under) costs that one
// access and then the walk; a hint past the pool end costs the walk alone; each
// gives the walk's answer. An Unlink from a hinted probe walks the chain for
// its link — the bucket slot and k-1 predecessor headers — so a hinted Delete
// reads what an unhinted one does.
func TestProbeHintedAccesses(t *testing.T) {
	const (
		L, klen, vlen      = 8, 5, 8 // "key-i", "8 bytes."
		link, free1, free2 = 1, 1 + 1, 1 + 1
	)
	ht, p, clk := chainTable(t, L)
	dev := p.m.Device()
	metaOp := dev.Machine().Config().MetaOp
	measure := func(what string, fn func(), reads int64) {
		t.Helper()
		r0 := dev.Counters().Reads
		fn()
		if got := dev.Counters().Reads - r0; got != reads {
			t.Errorf("%s: %d read accesses, want %d", what, got, reads)
		}
	}
	// getAt runs GetRefAt and checks its answer: entry want, or absent.
	getAt := func(what string, key []byte, at, want PMID, reads int64) {
		t.Helper()
		measure(what, func() {
			val, n, e, err := ht.GetRefAt(clk, key, at)
			if err != nil || e != want || (want != Null && (val == Null || n != vlen)) {
				t.Fatalf("%s: GetRefAt = %d, %d, entry %d, %v; want entry %d", what, val, n, e, err, want)
			}
		}, reads)
	}
	es := chainEntries(t, ht, 0)
	for k := 1; k <= L; k++ {
		key, e, other := chainKey(k-1), es[k-1], es[L-k]
		t0 := clk.Now()
		getAt(fmt.Sprintf("hit k=%d", k), key, e, e, 1)
		var c sim.Clock
		p.m.ChargeRead(&c, blockHeaderSize+entryKeyStart+klen)
		if got := clk.Now() - t0; got != metaOp+c.Now() {
			t.Errorf("hit k=%d: %v virtual, want %v", k, got, metaOp+c.Now())
		}
		measure(fmt.Sprintf("UpdateAt k=%d", k), func() {
			u, err := ht.UpdateAt(clk, key, e)
			if err != nil || u.Entry() != e {
				t.Fatalf("UpdateAt k=%d: entry %d, %v; want %d", k, u.Entry(), err, e)
			}
			if err := u.Abort(); err != nil {
				t.Fatal(err)
			}
		}, 1)
		if other != e {
			getAt(fmt.Sprintf("foreign hint k=%d", k), key, other, e, 1+int64(k+1))
		}
		getAt(fmt.Sprintf("hint past the pool end k=%d", k), key, PMID(p.m.Len()), e, int64(k+1))
	}

	// A deleted key's entry block is free but still holds the key.
	gone := []byte("gone!")
	if err := ht.Put(clk, gone, []byte("8 bytes.")); err != nil {
		t.Fatal(err)
	}
	ge := chainEntries(t, ht, 0)[L]
	if ok, err := ht.Delete(clk, gone); err != nil || !ok {
		t.Fatalf("Delete(gone) = %v, %v", ok, err)
	}
	getAt("freed-block hint", gone, ge, Null, 1+int64(1+L))
	measure("UpdateAt freed-block hint", func() {
		u, err := ht.UpdateAt(clk, gone, ge)
		if err != nil || u.Entry() != Null {
			t.Fatalf("UpdateAt of a deleted key from its freed entry: entry %d, %v", u.Entry(), err)
		}
		if err := u.Abort(); err != nil {
			t.Fatal(err)
		}
	}, 1+int64(1+L))

	// Unlink from a hinted probe, last position first.
	for k := L; k >= 1; k-- {
		key, e := chainKey(k-1), es[k-1]
		measure(fmt.Sprintf("hinted Delete k=%d", k), func() {
			u, err := ht.UpdateAt(clk, key, e)
			if err == nil {
				err = u.Delete()
			}
			if err != nil || u.Entry() != Null {
				t.Fatalf("hinted Delete k=%d: entry %d after, %v", k, u.Entry(), err)
			}
		}, 1+int64(k)+link+free1+free2)
	}
	if n, err := ht.Len(clk); err != nil || n != 0 {
		t.Fatalf("Len after deleting every key = %d, %v", n, err)
	}
	if vs := append(p.Verify(clk), ht.Verify(clk)...); len(vs) != 0 {
		t.Fatalf("violations: %v", vs)
	}
}

// probeKeyPastPoolEnd: an entry whose hash and klen match a probe key that
// cannot fit between the entry and the end of the pool fails the walk with the
// mapping's range error — the header-and-key access is bounds-checked as one.
func probeKeyPastPoolEnd(t *testing.T) {
	ht, p, clk := chainTable(t, 3)
	big := bytes.Repeat([]byte{'k'}, int(p.m.Len()))
	e := chainEntries(t, ht, 0)[1]
	poke(t, p, e+entryHash, HashKey(big))
	poke(t, p, e+entryKlen, uint64(len(big)))
	if _, _, err := ht.Get(clk, big); !errors.Is(err, pmem.ErrOutOfRange) {
		t.Fatalf("Get of a key running past the pool end: %v, want pmem.ErrOutOfRange", err)
	}
	if _, err := ht.Update(clk, big); !errors.Is(err, pmem.ErrOutOfRange) {
		t.Fatalf("Update of the same key: %v, want pmem.ErrOutOfRange", err)
	}
	// Range reads every key: a klen no access can hold must fail it too, however
	// absurd (2^64-8 would wrap a signed length back inside the header).
	poke(t, p, e+entryKlen, ^uint64(7))
	if err := ht.Range(clk, func([]byte, PMID, int64) bool { return true }); !errors.Is(err, pmem.ErrOutOfRange) {
		t.Fatalf("Range over an entry with klen 2^64-8: %v, want pmem.ErrOutOfRange", err)
	}
	if v, ok, err := ht.Get(clk, chainKey(0)); err != nil || !ok || string(v) != "8 bytes." {
		t.Fatalf("Get ahead of the damaged entry = %q, %v, %v", v, ok, err)
	}
}

// within fails the test when fn has not returned after two seconds — a walk on
// a cycle, holding its lock — instead of hanging the run.
func within(t *testing.T, what string, fn func() error) error {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- fn() }()
	select {
	case err := <-done:
		return err
	case <-time.After(2 * time.Second):
		t.Fatalf("%s did not return within 2 s: the walk never leaves the cycle", what)
		return nil
	}
}

// TestChainCycleIsErrCorrupt: a chain that loops back on itself ends every
// walk in ErrCorrupt after at most maxBlocks steps — the bound Verify already
// stops at — with the bucket, the transaction and the lane released, where it
// used to spin under the bucket lock forever.
func TestChainCycleIsErrCorrupt(t *testing.T) {
	for _, shape := range []string{"self-loop", "2-cycle"} {
		t.Run(shape, func(t *testing.T) {
			// A small pool keeps the bound (heap/64 steps) cheap under -race.
			p, _, clk := newTestPool(t, 1<<20)
			id, err := FormatPool(clk, p, 2)
			if err != nil {
				t.Fatal(err)
			}
			ht, err := OpenHashtable(clk, p, id)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 12; i++ {
				if err := ht.Put(clk, chainKey(i), []byte("v")); err != nil {
					t.Fatal(err)
				}
			}
			const sick = 1
			es := chainEntries(t, ht, sick)
			if len(es) < 2 || len(chainEntries(t, ht, 0)) == 0 {
				t.Fatalf("bucket %d holds %d entries; the keys no longer spread over both buckets", sick, len(es))
			}
			tail := es[len(es)-1]
			if shape == "self-loop" {
				poke(t, p, tail+entryNext, uint64(tail))
			} else {
				poke(t, p, tail+entryNext, uint64(es[len(es)-2]))
			}
			var absent []byte // a key of the sick bucket that is not in it
			for i := 0; absent == nil; i++ {
				if k := []byte(fmt.Sprintf("absent-%d", i)); HashKey(k)&1 == sick {
					absent = k
				}
			}
			for _, c := range []struct {
				name string
				call func() error
			}{
				{"Get", func() error { _, _, err := ht.Get(clk, absent); return err }},
				{"GetRef", func() error { _, _, _, err := ht.GetRef(clk, absent); return err }},
				{"Update", func() error { _, err := ht.Update(clk, absent); return err }},
				{"Put", func() error { return ht.Put(clk, absent, []byte("v")) }},
				{"Delete", func() error { _, err := ht.Delete(clk, absent); return err }},
				{"Range", func() error { return ht.Range(clk, func([]byte, PMID, int64) bool { return true }) }},
			} {
				// Twice: the first call must have released the bucket lock.
				for i := 0; i < 2; i++ {
					if err := within(t, c.name, c.call); !errors.Is(err, ErrCorrupt) {
						t.Fatalf("%s #%d on a %s: %v, want ErrCorrupt", c.name, i+1, shape, err)
					}
				}
			}
			for i := 0; i < 12; i++ {
				if HashKey(chainKey(i))&1 == sick {
					continue
				}
				if v, ok, err := ht.Get(clk, chainKey(i)); err != nil || !ok || string(v) != "v" {
					t.Fatalf("Get(%s) in the healthy bucket = %q, %v, %v", chainKey(i), v, ok, err)
				}
			}
			// A key ahead of the cycle is still found: the walk stops on it.
			if _, ok, err := ht.Get(clk, mustKeyOf(t, ht, es[0])); err != nil || !ok {
				t.Fatalf("Get of the sick chain's head = %v, %v", ok, err)
			}
			if vs := ht.Verify(clk); !hasViolation(vs, "ht.chain") {
				t.Fatalf("Verify did not report ht.chain: %v", vs)
			}
			if vs := p.Verify(clk); len(vs) != 0 {
				t.Fatalf("the failed updates left the pool damaged: %v", vs)
			}
		})
	}
}

// mustKeyOf returns a copy of entry e's key.
func mustKeyOf(t *testing.T, ht *Hashtable, e PMID) []byte {
	t.Helper()
	hd, key, err := ht.readEntry(newClock(), e, anyKey)
	if err != nil || hd.klen == 0 {
		t.Fatalf("entry %d: klen %d, %v", e, hd.klen, err)
	}
	return bytes.Clone(key)
}
