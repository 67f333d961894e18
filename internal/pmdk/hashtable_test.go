package pmdk

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"pmemcpy/internal/sim"
)

// newTestTable creates a pool with a hashtable published in the root.
func newTestTable(t *testing.T, buckets uint64) (*Hashtable, *Pool, *sim.Clock) {
	t.Helper()
	p, _, clk := newTestPool(t, 16<<20)
	var id PMID
	withTx(t, p, func(tx *Tx) error {
		var err error
		id, err = CreateHashtable(tx, buckets)
		if err != nil {
			return err
		}
		root, _ := p.Root()
		return tx.WriteU64(root, uint64(id))
	})
	ht, err := OpenHashtable(clk, p, id)
	if err != nil {
		t.Fatal(err)
	}
	return ht, p, clk
}

func TestCreateHashtableRejectsBadBuckets(t *testing.T) {
	p, _, clk := newTestPool(t, 0)
	tx, err := p.Begin(clk)
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Abort()
	for _, nb := range []uint64{0, 3, 100} {
		if _, err := CreateHashtable(tx, nb); err == nil {
			t.Errorf("CreateHashtable(%d) accepted", nb)
		}
	}
}

func TestOpenHashtableRejectsWrongMagic(t *testing.T) {
	p, _, clk := newTestPool(t, 0)
	root, _ := p.Root()
	if _, err := OpenHashtable(clk, p, root); err == nil {
		t.Fatal("OpenHashtable on zeroed root did not fail")
	}
}

func TestPutGetDelete(t *testing.T) {
	ht, _, clk := newTestTable(t, 16)
	if err := ht.Put(clk, []byte("alpha"), []byte("one")); err != nil {
		t.Fatal(err)
	}
	v, ok, err := ht.Get(clk, []byte("alpha"))
	if err != nil || !ok {
		t.Fatalf("Get: ok=%v err=%v", ok, err)
	}
	if string(v) != "one" {
		t.Fatalf("Get = %q", v)
	}
	if _, ok, _ := ht.Get(clk, []byte("missing")); ok {
		t.Fatal("Get(missing) reported present")
	}
	existed, err := ht.Delete(clk, []byte("alpha"))
	if err != nil || !existed {
		t.Fatalf("Delete: existed=%v err=%v", existed, err)
	}
	if _, ok, _ := ht.Get(clk, []byte("alpha")); ok {
		t.Fatal("deleted key still present")
	}
	existed, err = ht.Delete(clk, []byte("alpha"))
	if err != nil || existed {
		t.Fatalf("second Delete: existed=%v err=%v", existed, err)
	}
}

func TestPutReplaceChangesValueAndFreesOld(t *testing.T) {
	ht, p, clk := newTestTable(t, 16)
	if err := ht.Put(clk, []byte("k"), []byte("first value")); err != nil {
		t.Fatal(err)
	}
	frees := p.Stats().Frees
	if err := ht.Put(clk, []byte("k"), []byte("second, longer value than before")); err != nil {
		t.Fatal(err)
	}
	if p.Stats().Frees != frees+1 {
		t.Fatalf("replace did not free old value block: frees %d -> %d", frees, p.Stats().Frees)
	}
	v, ok, err := ht.Get(clk, []byte("k"))
	if err != nil || !ok {
		t.Fatal(err)
	}
	if string(v) != "second, longer value than before" {
		t.Fatalf("Get after replace = %q", v)
	}
	n, err := ht.Len(clk)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("Len after replace = %d, want 1", n)
	}
}

func TestPutEmptyValueAndEmptyKeyRules(t *testing.T) {
	ht, _, clk := newTestTable(t, 16)
	if err := ht.Put(clk, []byte(""), []byte("x")); err == nil {
		t.Fatal("empty key accepted")
	}
	if err := ht.Put(clk, []byte("empty"), nil); err != nil {
		t.Fatal(err)
	}
	v, ok, err := ht.Get(clk, []byte("empty"))
	if err != nil || !ok {
		t.Fatalf("Get(empty value): ok=%v err=%v", ok, err)
	}
	if len(v) != 0 {
		t.Fatalf("empty value came back as %q", v)
	}
}

func TestChainCollisions(t *testing.T) {
	// One bucket: everything collides, exercising chain walks, middle
	// deletes and head deletes.
	ht, _, clk := newTestTable(t, 1)
	keys := []string{"a", "b", "c", "d", "e"}
	for i, k := range keys {
		if err := ht.Put(clk, []byte(k), []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if n, _ := ht.Len(clk); n != len(keys) {
		t.Fatalf("Len = %d, want %d", n, len(keys))
	}
	// Delete the middle and the head of the chain.
	for _, victim := range []string{"c", "e"} {
		if ok, err := ht.Delete(clk, []byte(victim)); err != nil || !ok {
			t.Fatalf("Delete(%q): ok=%v err=%v", victim, ok, err)
		}
	}
	for i, k := range keys {
		v, ok, err := ht.Get(clk, []byte(k))
		if err != nil {
			t.Fatal(err)
		}
		want := k != "c" && k != "e"
		if ok != want {
			t.Fatalf("Get(%q) present=%v, want %v", k, ok, want)
		}
		if ok && v[0] != byte(i) {
			t.Fatalf("Get(%q) = %v", k, v)
		}
	}
}

func TestGetRefZeroCopy(t *testing.T) {
	ht, p, clk := newTestTable(t, 16)
	if err := ht.Put(clk, []byte("zc"), []byte("zero copy payload")); err != nil {
		t.Fatal(err)
	}
	id, n, ok, err := ht.GetRef(clk, []byte("zc"))
	if err != nil || !ok {
		t.Fatal(err)
	}
	live, err := p.Slice(id, n)
	if err != nil {
		t.Fatal(err)
	}
	if string(live) != "zero copy payload" {
		t.Fatalf("GetRef slice = %q", live)
	}
}

func TestRangeVisitsAll(t *testing.T) {
	ht, _, clk := newTestTable(t, 8)
	want := map[string]string{}
	for i := 0; i < 50; i++ {
		k, v := fmt.Sprintf("key%03d", i), fmt.Sprintf("val%03d", i)
		want[k] = v
		if err := ht.Put(clk, []byte(k), []byte(v)); err != nil {
			t.Fatal(err)
		}
	}
	got := map[string]int64{}
	err := ht.Range(clk, func(key []byte, val PMID, vlen int64) bool {
		got[string(key)] = vlen
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("Range visited %d keys, want %d", len(got), len(want))
	}
	for k := range want {
		if got[k] != 6 {
			t.Fatalf("Range key %q vlen = %d", k, got[k])
		}
	}
}

func TestRangeEarlyStop(t *testing.T) {
	ht, _, clk := newTestTable(t, 8)
	for i := 0; i < 10; i++ {
		if err := ht.Put(clk, []byte(fmt.Sprintf("k%d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	visits := 0
	err := ht.Range(clk, func([]byte, PMID, int64) bool {
		visits++
		return visits < 3
	})
	if err != nil {
		t.Fatal(err)
	}
	if visits != 3 {
		t.Fatalf("Range visited %d after early stop, want 3", visits)
	}
}

func TestHashtableSurvivesReopen(t *testing.T) {
	ht, p, clk := newTestTable(t, 64)
	for i := 0; i < 30; i++ {
		if err := ht.Put(clk, []byte(fmt.Sprintf("persist%d", i)), []byte(fmt.Sprintf("value%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	p2, err := Open(clk, p.Mapping())
	if err != nil {
		t.Fatal(err)
	}
	root, _ := p2.Root()
	id, err := p2.ReadU64(clk, root)
	if err != nil {
		t.Fatal(err)
	}
	ht2, err := OpenHashtable(clk, p2, PMID(id))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		v, ok, err := ht2.Get(clk, []byte(fmt.Sprintf("persist%d", i)))
		if err != nil || !ok {
			t.Fatalf("reopened Get(%d): ok=%v err=%v", i, ok, err)
		}
		if string(v) != fmt.Sprintf("value%d", i) {
			t.Fatalf("reopened Get(%d) = %q", i, v)
		}
	}
}

// TestHashtableModelBased drives the table with a random operation sequence
// and checks it against map[string][]byte after every step.
func TestHashtableModelBased(t *testing.T) {
	ht, _, clk := newTestTable(t, 16)
	model := map[string][]byte{}
	rng := rand.New(rand.NewSource(2024))
	keys := make([]string, 40)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%02d", i)
	}
	for step := 0; step < 600; step++ {
		k := keys[rng.Intn(len(keys))]
		switch rng.Intn(3) {
		case 0, 1: // put
			v := make([]byte, rng.Intn(200))
			rng.Read(v)
			if err := ht.Put(clk, []byte(k), v); err != nil {
				t.Fatalf("step %d Put: %v", step, err)
			}
			model[k] = v
		case 2: // delete
			existed, err := ht.Delete(clk, []byte(k))
			if err != nil {
				t.Fatalf("step %d Delete: %v", step, err)
			}
			if _, want := model[k]; want != existed {
				t.Fatalf("step %d Delete(%q) existed=%v, model says %v", step, k, existed, want)
			}
			delete(model, k)
		}
		// Spot-check a random key.
		probe := keys[rng.Intn(len(keys))]
		got, ok, err := ht.Get(clk, []byte(probe))
		if err != nil {
			t.Fatalf("step %d Get: %v", step, err)
		}
		want, wantOK := model[probe]
		if ok != wantOK || (ok && !bytes.Equal(got, want)) {
			t.Fatalf("step %d: Get(%q) = (%v,%v), model (%v,%v)", step, probe, got, ok, want, wantOK)
		}
	}
	n, err := ht.Len(clk)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(model) {
		t.Fatalf("final Len = %d, model %d", n, len(model))
	}
}

// TestHashtableConcurrentDisjointKeys has many goroutines hammer disjoint
// key sets, the access pattern of parallel ranks storing their own blocks.
func TestHashtableConcurrentDisjointKeys(t *testing.T) {
	ht, _, _ := newTestTable(t, 256)
	const workers = 8
	const perWorker = 25
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			clk := &sim.Clock{Rank: w} // one arena per worker, as ranks get
			for i := 0; i < perWorker; i++ {
				k := []byte(fmt.Sprintf("w%d-k%d", w, i))
				v := []byte(fmt.Sprintf("w%d-v%d", w, i))
				if err := ht.Put(clk, k, v); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	clk := new(sim.Clock)
	n, err := ht.Len(clk)
	if err != nil {
		t.Fatal(err)
	}
	if n != workers*perWorker {
		t.Fatalf("Len = %d, want %d", n, workers*perWorker)
	}
	for w := 0; w < workers; w++ {
		for i := 0; i < perWorker; i++ {
			v, ok, err := ht.Get(clk, []byte(fmt.Sprintf("w%d-k%d", w, i)))
			if err != nil || !ok {
				t.Fatalf("Get(w%d-k%d): ok=%v err=%v", w, i, ok, err)
			}
			if string(v) != fmt.Sprintf("w%d-v%d", w, i) {
				t.Fatalf("Get(w%d-k%d) = %q", w, i, v)
			}
		}
	}
}

func TestHashKeyDeterministic(t *testing.T) {
	if HashKey([]byte("abc")) != HashKey([]byte("abc")) {
		t.Fatal("HashKey not deterministic")
	}
	if HashKey([]byte("abc")) == HashKey([]byte("abd")) {
		t.Fatal("suspicious collision on near keys (FNV should differ)")
	}
}
