package pmdk

import (
	"fmt"
	"testing"
	"time"

	"pmemcpy/internal/pmem"
	"pmemcpy/internal/sim"
)

// virtMeter puts a benchmark's other time domain next to its wall ns/op: the
// virtual time the cost model charged and the persist barriers and read
// accesses the device counted between start and stop, reported per iteration.
type virtMeter struct {
	clk    *sim.Clock
	dev    *pmem.Device
	t0, ns time.Duration
	c0, c  pmem.Counters
}

func meter(p *Pool, clk *sim.Clock) *virtMeter { return &virtMeter{clk: clk, dev: p.m.Device()} }

func (m *virtMeter) start() { m.t0, m.c0 = m.clk.Now(), m.dev.Counters() }

func (m *virtMeter) stop() {
	m.ns += m.clk.Now() - m.t0
	now := m.dev.Counters()
	m.c.Persists += now.Persists - m.c0.Persists
	m.c.Reads += now.Reads - m.c0.Reads
}

func (m *virtMeter) report(b *testing.B) {
	b.ReportMetric(float64(m.ns)/float64(b.N), "virt-ns/op")
	b.ReportMetric(float64(m.c.Persists)/float64(b.N), "persists/op")
	b.ReportMetric(float64(m.c.Reads)/float64(b.N), "reads/op")
}

func benchPool(b *testing.B, size int64) (*Pool, *sim.Clock) {
	b.Helper()
	m := sim.NewMachine(sim.DefaultConfig())
	m.SetConcurrency(1)
	dev := pmem.New(m, size)
	mp, err := pmem.NewMapping(dev, 0, size, false)
	if err != nil {
		b.Fatal(err)
	}
	clk := new(sim.Clock)
	p, err := Create(clk, mp, nil)
	if err != nil {
		b.Fatal(err)
	}
	return p, clk
}

// BenchmarkTxCommit measures the full transaction cycle for one small field
// update (the metadata-operation building block of every store).
func BenchmarkTxCommit(b *testing.B) {
	p, clk := benchPool(b, 64<<20)
	root, _ := p.Root()
	m := meter(p, clk)
	b.ResetTimer()
	m.start()
	for i := 0; i < b.N; i++ {
		tx, err := p.Begin(clk)
		if err != nil {
			b.Fatal(err)
		}
		if err := tx.WriteU64(root, uint64(i)); err != nil {
			b.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			b.Fatal(err)
		}
	}
	m.stop()
	m.report(b)
}

// BenchmarkAllocFree measures allocator throughput with immediate reuse.
func BenchmarkAllocFree(b *testing.B) {
	for _, size := range []int64{64, 1024, 64 << 10} {
		b.Run(fmt.Sprintf("%dB", size), func(b *testing.B) {
			p, clk := benchPool(b, 256<<20)
			m := meter(p, clk)
			b.ResetTimer()
			m.start()
			for i := 0; i < b.N; i++ {
				tx, err := p.Begin(clk)
				if err != nil {
					b.Fatal(err)
				}
				id, err := p.Alloc(tx, size)
				if err != nil {
					b.Fatal(err)
				}
				if err := p.Free(tx, id); err != nil {
					b.Fatal(err)
				}
				if err := tx.Commit(); err != nil {
					b.Fatal(err)
				}
			}
			m.stop()
			m.report(b)
		})
	}
}

// BenchmarkPoolOpen is the open rung: a reopen of a pool holding n live
// blocks, every other one then freed, in both time domains — virt-ns/op is
// what recovery and the rebuild of the free lists charge — with allocs/op.
func BenchmarkPoolOpen(b *testing.B) {
	for _, n := range []int{1 << 10, 64 << 10} {
		b.Run(fmt.Sprintf("blocks=%d", n), func(b *testing.B) {
			p, clk := benchPool(b, 64<<20)
			const batch = 256 // blocks per transaction, well inside a lane
			ids := make([]PMID, 0, n)
			for len(ids) < n {
				tx, _ := p.Begin(clk)
				for i := 0; i < batch && len(ids) < n; i++ {
					id, err := p.Alloc(tx, 100)
					if err != nil {
						b.Fatal(err)
					}
					ids = append(ids, id)
				}
				if err := tx.Commit(); err != nil {
					b.Fatal(err)
				}
			}
			for i := 0; i < n; i += 2 * batch {
				tx, _ := p.Begin(clk)
				for j := i; j < min(i+2*batch, n); j += 2 {
					if err := p.Free(tx, ids[j]); err != nil {
						b.Fatal(err)
					}
				}
				if err := tx.Commit(); err != nil {
					b.Fatal(err)
				}
			}
			m := meter(p, clk)
			b.ReportAllocs()
			b.ResetTimer()
			m.start()
			for range b.N {
				if _, err := Open(clk, p.m); err != nil {
					b.Fatal(err)
				}
			}
			m.stop()
			m.report(b)
		})
	}
}

// BenchmarkHashtablePut measures the three forms a Put's commit takes, each in
// both time domains: insert (a new key per iteration), overwrite-same-len
// (1024 keys rewritten in place), and overwrite-grow (the same keys, each Put
// changing the value's length, so every one allocates, relinks and frees).
func BenchmarkHashtablePut(b *testing.B) {
	const keys = 1024
	for _, rung := range []struct {
		name string
		key  func(i int) int
		vlen func(i int) int
	}{
		{"insert", func(i int) int { return keys + i }, func(int) int { return 64 }},
		{"overwrite-same-len", func(i int) int { return i % keys }, func(int) int { return 64 }},
		{"overwrite-grow", func(i int) int { return i % keys }, func(i int) int { return 32 + 64*(i/keys%2) }},
	} {
		b.Run(rung.name, func(b *testing.B) {
			p, clk := benchPool(b, 512<<20)
			id, err := FormatPool(clk, p, 1<<12)
			if err != nil {
				b.Fatal(err)
			}
			ht, err := OpenHashtable(clk, p, id)
			if err != nil {
				b.Fatal(err)
			}
			val := make([]byte, 128)
			for i := 0; i < keys; i++ {
				if err := ht.Put(clk, []byte(fmt.Sprintf("key-%d", i)), val[:64]); err != nil {
					b.Fatal(err)
				}
			}
			m := meter(p, clk)
			b.ResetTimer()
			m.start()
			for i := 0; i < b.N; i++ {
				key := []byte(fmt.Sprintf("key-%d", rung.key(i)))
				if err := ht.Put(clk, key, val[:rung.vlen(i)]); err != nil {
					b.Fatal(err)
				}
			}
			m.stop()
			m.report(b)
		})
	}
}

// BenchmarkHashtableGet measures a lookup in both time domains at chains of
// exactly 1, 5 and 20 entries (a 1-bucket table holding that many keys): hit
// cycles through the keys, so it visits (chain+1)/2 entries on average, and
// miss walks the whole chain.
func BenchmarkHashtableGet(b *testing.B) {
	for _, chain := range []int{1, 5, 20} {
		for _, kind := range []string{"hit", "miss"} {
			hit := kind == "hit"
			b.Run(fmt.Sprintf("chain=%d/%s", chain, kind), func(b *testing.B) {
				p, clk := benchPool(b, 64<<20)
				id, err := FormatPool(clk, p, 1)
				if err != nil {
					b.Fatal(err)
				}
				ht, err := OpenHashtable(clk, p, id)
				if err != nil {
					b.Fatal(err)
				}
				keys := make([][]byte, chain)
				for i := range keys {
					keys[i] = []byte(fmt.Sprintf("key-%d", i))
					if err := ht.Put(clk, keys[i], []byte("value")); err != nil {
						b.Fatal(err)
					}
				}
				if !hit {
					keys = [][]byte{[]byte("absent")}
				}
				m := meter(p, clk)
				b.ResetTimer()
				m.start()
				for i := 0; i < b.N; i++ {
					_, ok, err := ht.Get(clk, keys[i%len(keys)])
					if err != nil || ok != hit {
						b.Fatalf("Get: ok=%v err=%v", ok, err)
					}
				}
				m.stop()
				m.report(b)
			})
		}
	}
}

// BenchmarkRecovery measures Open-time lane recovery with one aborted
// transaction outstanding.
func BenchmarkRecovery(b *testing.B) {
	m := sim.NewMachine(sim.DefaultConfig())
	m.SetConcurrency(1)
	dev := pmem.New(m, 64<<20, pmem.WithCrashTracking())
	mp, err := pmem.NewMapping(dev, 0, 64<<20, false)
	if err != nil {
		b.Fatal(err)
	}
	clk := new(sim.Clock)
	vm := &virtMeter{clk: clk, dev: dev}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		p, err := Create(clk, mp, nil)
		if err != nil {
			b.Fatal(err)
		}
		tx, err := p.Begin(clk)
		if err != nil {
			b.Fatal(err)
		}
		root, _ := p.Root()
		if err := tx.WriteU64(root, 1); err != nil {
			b.Fatal(err)
		}
		dev.Crash(pmem.CrashKeepAll, nil)
		b.StartTimer()
		vm.start()
		if _, err := Open(clk, mp); err != nil {
			b.Fatal(err)
		}
		vm.stop()
	}
	vm.report(b)
}
