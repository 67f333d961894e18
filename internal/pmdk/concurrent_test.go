package pmdk

import (
	"fmt"
	"maps"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"

	"pmemcpy/internal/sim"
)

// TestConcurrentArenaAlloc hammers the striped allocator from many
// goroutines doing mixed Alloc, Reserve+Claim, Reserve+Cancel, Free,
// Commit and Abort traffic, then audits the surviving blocks: every committed
// block must be marked allocated, lie inside the heap, and overlap no other
// live block, and the heap's free blocks must be the lists'. Run under -race
// this also pins the locking protocol (one arena lock per list operation,
// blocking steals, leaf brk mutex) as data-race free.
func TestConcurrentArenaAlloc(t *testing.T) {
	const (
		workers = 8
		rounds  = 60
	)
	p, _, _ := newTestPool(t, 64<<20)

	type block struct {
		id   PMID
		size int64
	}
	live := make([][]block, workers)
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			clk := &sim.Clock{Rank: w} // one arena per worker, as ranks get
			rng := rand.New(rand.NewSource(int64(w) * 1337))
			for r := 0; r < rounds; r++ {
				tx, err := p.Begin(clk)
				if err != nil {
					errs[w] = err
					return
				}
				var fresh []block
				nall := 1 + rng.Intn(3)
				ok := true
				for i := 0; i < nall && ok; i++ {
					// Mix of class sizes and huge blocks, occasionally
					// larger than the default extent to force reservation.
					n := int64(1) << (6 + rng.Intn(10)) // 64 B .. 32 KB
					n += rng.Int63n(100)
					var id PMID
					if rng.Intn(2) == 0 {
						id, err = p.Alloc(tx, n)
					} else if id, err = p.Reserve(clk, n); err == nil {
						err = p.Claim(tx, id)
					}
					if err != nil {
						errs[w] = err
						ok = false
						break
					}
					fresh = append(fresh, block{id, n})
				}
				// A reservation given back unclaimed sometimes.
				if ok && rng.Intn(3) == 0 {
					id, err := p.Reserve(clk, 64+rng.Int63n(4000))
					if err == nil {
						err = p.Cancel(clk, id)
					}
					if err != nil {
						errs[w] = err
						ok = false
					}
				}
				// Free one of this worker's own committed blocks sometimes.
				if ok && len(live[w]) > 0 && rng.Intn(2) == 0 {
					victim := rng.Intn(len(live[w]))
					if err := p.Free(tx, live[w][victim].id); err != nil {
						errs[w] = err
						ok = false
					} else {
						live[w] = append(live[w][:victim], live[w][victim+1:]...)
					}
				}
				if !ok {
					tx.Abort()
					return
				}
				if rng.Intn(4) == 0 {
					// Aborts must hand back everything, including any
					// extents reserved on this transaction's behalf.
					if err := tx.Abort(); err != nil {
						errs[w] = err
						return
					}
					continue
				}
				if err := tx.Commit(); err != nil {
					errs[w] = err
					return
				}
				live[w] = append(live[w], fresh...)
			}
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", w, err)
		}
	}

	// Audit: collect every surviving block, check state and bounds, then
	// sort by block start and require strict non-overlap.
	clk := new(sim.Clock)
	type span struct{ start, end int64 }
	var spans []span
	for w := range live {
		for _, b := range live[w] {
			usable, err := p.UsableSize(clk, b.id)
			if err != nil {
				t.Fatalf("worker %d block %d: %v", w, b.id, err)
			}
			if usable < b.size {
				t.Fatalf("block %d: usable %d < requested %d", b.id, usable, b.size)
			}
			start := int64(b.id) - blockHeaderSize
			spans = append(spans, span{start, start + usable + blockHeaderSize})
			if start < p.heapOff || spans[len(spans)-1].end > p.heapEnd {
				t.Fatalf("block %d outside heap [%d,%d)", b.id, p.heapOff, p.heapEnd)
			}
		}
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i].start < spans[j].start })
	for i := 1; i < len(spans); i++ {
		if spans[i].start < spans[i-1].end {
			t.Fatalf("live blocks overlap: [%d,%d) and [%d,%d)",
				spans[i-1].start, spans[i-1].end, spans[i].start, spans[i].end)
		}
	}

	if vs := p.Verify(clk); len(vs) != 0 {
		t.Fatalf("violations after the traffic: %v", vs)
	}
	st := p.Stats()
	if st.Allocs == 0 || st.Transactions == 0 {
		t.Fatalf("stats not counting: %+v", st)
	}
	used, err := p.HeapUsed(clk)
	if err != nil {
		t.Fatal(err)
	}
	if used <= 0 || used > 64<<20 {
		t.Fatalf("HeapUsed = %d, want within (0, pool]", used)
	}
	t.Logf("survivors=%d allocs=%d frees=%d txs=%d aborts=%d steals=%d heap=%d",
		len(spans), st.Allocs, st.Frees, st.Transactions, st.Aborts, st.ArenaSteals, used)
}

// TestStripeSharingBuckets runs writers on distinct buckets that share one
// lock stripe, with a Range looping beside them: four goroutines
// Put/Update+Commit/Delete/Get their own keys — each owns one bucket, and all
// four buckets are congruent mod 64 — while a fifth enumerates the table. The
// table must end equal to the writers' DRAM models and both checkers clean.
// Its teeth are -race and the deadlock a stripe held twice would be.
func TestStripeSharingBuckets(t *testing.T) {
	const (
		workers = 4
		perKey  = 4
		rounds  = 150
	)
	ht, p, _ := newTestTable(t, 256)
	// Worker w's keys all hash to bucket 5+64w.
	keys := make([][]string, workers)
	for i := 0; ; i++ {
		k := fmt.Sprintf("key-%d", i)
		b := HashKey([]byte(k)) & (ht.nbuckets - 1)
		if w := int(b / 64); b%64 == 5 && len(keys[w]) < perKey {
			keys[w] = append(keys[w], k)
		}
		full := true
		for w := range keys {
			full = full && len(keys[w]) == perKey
		}
		if full {
			break
		}
	}
	stripe := p.Lock(ht.bucketOff(HashKey([]byte(keys[0][0]))))
	for w := 1; w < workers; w++ {
		off := ht.bucketOff(HashKey([]byte(keys[w][0])))
		if off == ht.bucketOff(HashKey([]byte(keys[0][0]))) || p.Lock(off) != stripe {
			t.Fatalf("worker %d's bucket does not share worker 0's stripe", w)
		}
	}

	models := make([]map[string]string, workers)
	errs := make([]error, workers+1)
	var writers, ranger sync.WaitGroup
	done := make(chan struct{})
	for w := 0; w < workers; w++ {
		models[w] = map[string]string{}
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			clk := &sim.Clock{Rank: w}
			rng := rand.New(rand.NewSource(int64(w) + 1))
			model := models[w]
			for r := 0; r < rounds && errs[w] == nil; r++ {
				k := keys[w][rng.Intn(perKey)]
				v := fmt.Sprintf("%s=%d:%s", k, r, strings.Repeat("x", rng.Intn(3)*8))
				switch rng.Intn(4) {
				case 0:
					if errs[w] = ht.Put(clk, []byte(k), []byte(v)); errs[w] == nil {
						model[k] = v
					}
				case 1:
					u, err := ht.Update(clk, []byte(k))
					if err != nil {
						errs[w] = err
						break
					}
					if old, want := string(u.Old()), model[k]; old != want {
						u.Abort()
						errs[w] = fmt.Errorf("Update(%q).Old() = %q, model %q", k, old, want)
						break
					}
					if errs[w] = u.Commit([]byte(k), []byte(v)); errs[w] == nil {
						model[k] = v
					}
				case 2:
					existed, err := ht.Delete(clk, []byte(k))
					if _, want := model[k]; err == nil && existed != want {
						err = fmt.Errorf("Delete(%q) existed = %v, model %v", k, existed, want)
					}
					errs[w] = err
					delete(model, k)
				default:
					got, ok, err := ht.Get(clk, []byte(k))
					if want, wok := model[k]; err == nil && (ok != wok || string(got) != want) {
						err = fmt.Errorf("Get(%q) = %q, %v; model %q, %v", k, got, ok, want, wok)
					}
					errs[w] = err
				}
			}
		}(w)
	}
	ranger.Add(1)
	go func() {
		defer ranger.Done()
		clk := &sim.Clock{Rank: workers}
		for {
			select {
			case <-done:
				return
			default:
			}
			if err := ht.Range(clk, func([]byte, PMID, int64) bool { return true }); err != nil {
				errs[workers] = err
				return
			}
		}
	}()
	writers.Wait()
	close(done)
	ranger.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", w, err)
		}
	}

	clk := new(sim.Clock)
	want := map[string]string{}
	for _, m := range models {
		for k, v := range m {
			want[k] = v
		}
	}
	got := map[string]string{}
	err := ht.Range(clk, func(key []byte, val PMID, vlen int64) bool {
		b, err := p.Slice(val, vlen)
		if err != nil {
			t.Error(err)
			return false
		}
		got[string(key)] = string(b)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if !maps.Equal(got, want) {
		t.Errorf("table = %v, model %v", got, want)
	}
	if vs := ht.Verify(clk); len(vs) != 0 {
		t.Errorf("Hashtable.Verify: %v", vs)
	}
	if vs := p.Verify(clk); len(vs) != 0 {
		t.Errorf("Pool.Verify: %v", vs)
	}
}

// TestReopenAfterConcurrentTraffic runs a burst of concurrent transactions,
// reopens the pool (recovery + free-hint rebuild), and requires the
// allocator to stay fully usable.
func TestReopenAfterConcurrentTraffic(t *testing.T) {
	p, mp, _ := newTestPool(t, 16<<20)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			clk := &sim.Clock{Rank: w} // one arena per worker, as ranks get
			for r := 0; r < 20; r++ {
				tx, err := p.Begin(clk)
				if err != nil {
					t.Error(err)
					return
				}
				id, err := p.Alloc(tx, int64(200+w*100+r))
				if err != nil {
					t.Error(err)
					tx.Abort()
					return
				}
				if r%3 == 0 {
					if err := p.Free(tx, id); err != nil {
						t.Error(err)
						tx.Abort()
						return
					}
				}
				if err := tx.Commit(); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()

	clk := new(sim.Clock)
	p2, err := Open(clk, mp)
	if err != nil {
		t.Fatal(err)
	}
	tx, err := p2.Begin(clk)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p2.Alloc(tx, 4096); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}
