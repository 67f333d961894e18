package mpiio

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"pmemcpy/internal/mpi"
	"pmemcpy/internal/pmem"
	"pmemcpy/internal/posixfs"
	"pmemcpy/internal/sim"
)

func newRig(size int64) (*sim.Machine, *posixfs.FS) {
	m := sim.NewMachine(sim.DefaultConfig())
	m.SetConcurrency(1)
	if size == 0 {
		size = 64 << 20
	}
	return m, posixfs.New(pmem.New(m, size))
}

// fillPattern writes a rank- and offset-dependent byte pattern.
func fillPattern(p []byte, rank int, base int64) {
	for i := range p {
		p[i] = byte(int64(rank)*131 + base + int64(i))
	}
}

func TestCollectiveWriteThenIndependentRead(t *testing.T) {
	m, fs := newRig(0)
	const n, per = 6, 10_000
	_, err := mpi.Run(m, n, func(c *mpi.Comm) error {
		f, err := OpenCreate(c, fs, "/coll.dat", 3)
		if err != nil {
			return err
		}
		buf := make([]byte, per)
		fillPattern(buf, c.Rank(), 0)
		off := int64(c.Rank()) * per
		if err := f.WriteRangesAll([]Range{{Off: off, Data: buf}}); err != nil {
			return err
		}
		if err := f.Sync(); err != nil {
			return err
		}
		// Every rank reads the whole file independently and verifies.
		whole := make([]byte, n*per)
		if _, err := f.ReadAt(whole, 0); err != nil {
			return err
		}
		for r := 0; r < n; r++ {
			want := make([]byte, per)
			fillPattern(want, r, 0)
			got := whole[r*per : (r+1)*per]
			if !bytes.Equal(got, want) {
				return fmt.Errorf("rank %d: region of writer %d mismatches", c.Rank(), r)
			}
		}
		return f.Close()
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCollectiveReadMatchesWrite(t *testing.T) {
	m, fs := newRig(0)
	const n, per = 8, 4096
	_, err := mpi.Run(m, n, func(c *mpi.Comm) error {
		f, err := OpenCreate(c, fs, "/rw.dat", 0)
		if err != nil {
			return err
		}
		buf := make([]byte, per)
		fillPattern(buf, c.Rank(), 7)
		off := int64(c.Rank()) * per
		if err := f.WriteRangesAll([]Range{{Off: off, Data: buf}}); err != nil {
			return err
		}
		// Symmetric collective read-back.
		got := make([]byte, per)
		if err := f.ReadRangesAll([]Range{{Off: off, Data: got}}); err != nil {
			return err
		}
		if !bytes.Equal(got, buf) {
			return fmt.Errorf("rank %d: collective read mismatch", c.Rank())
		}
		return f.Close()
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCollectiveShuffledRead(t *testing.T) {
	// Each rank reads a region written by a different rank, forcing the
	// aggregator scatter path to route across ranks.
	m, fs := newRig(0)
	const n, per = 5, 3000
	_, err := mpi.Run(m, n, func(c *mpi.Comm) error {
		f, err := OpenCreate(c, fs, "/shuf.dat", 2)
		if err != nil {
			return err
		}
		buf := make([]byte, per)
		fillPattern(buf, c.Rank(), 0)
		if err := f.WriteRangesAll([]Range{{Off: int64(c.Rank()) * per, Data: buf}}); err != nil {
			return err
		}
		src := (c.Rank() + 2) % n
		got := make([]byte, per)
		if err := f.ReadRangesAll([]Range{{Off: int64(src) * per, Data: got}}); err != nil {
			return err
		}
		want := make([]byte, per)
		fillPattern(want, src, 0)
		if !bytes.Equal(got, want) {
			return fmt.Errorf("rank %d reading rank %d's region: mismatch", c.Rank(), src)
		}
		return f.Close()
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestUnevenSizesAndRanges(t *testing.T) {
	// Ranks contribute different amounts; domains are uneven.
	m, fs := newRig(0)
	const n = 4
	sizes := []int64{100, 7000, 3, 2500}
	offs := make([]int64, n)
	for i := 1; i < n; i++ {
		offs[i] = offs[i-1] + sizes[i-1]
	}
	total := offs[n-1] + sizes[n-1]
	_, err := mpi.Run(m, n, func(c *mpi.Comm) error {
		f, err := OpenCreate(c, fs, "/uneven.dat", 3)
		if err != nil {
			return err
		}
		buf := make([]byte, sizes[c.Rank()])
		fillPattern(buf, c.Rank(), 1)
		if err := f.WriteRangesAll([]Range{{Off: offs[c.Rank()], Data: buf}}); err != nil {
			return err
		}
		if c.Rank() == 0 {
			whole := make([]byte, total)
			if _, err := f.ReadAt(whole, 0); err != nil {
				return err
			}
			for r := 0; r < n; r++ {
				want := make([]byte, sizes[r])
				fillPattern(want, r, 1)
				if !bytes.Equal(whole[offs[r]:offs[r]+sizes[r]], want) {
					return fmt.Errorf("writer %d region mismatch", r)
				}
			}
		}
		return f.Close()
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestZeroLengthContribution(t *testing.T) {
	m, fs := newRig(0)
	_, err := mpi.Run(m, 4, func(c *mpi.Comm) error {
		f, err := OpenCreate(c, fs, "/zero.dat", 2)
		if err != nil {
			return err
		}
		var buf []byte
		var off int64
		if c.Rank() == 1 {
			buf = []byte("only rank one writes")
			off = 64
		}
		if err := f.WriteRangesAll([]Range{{Off: off, Data: buf}}); err != nil {
			return err
		}
		got := make([]byte, 20)
		if c.Rank() == 3 {
			if _, err := f.ReadAt(got, 64); err != nil {
				return err
			}
			if string(got) != "only rank one writes" {
				return fmt.Errorf("got %q", got)
			}
		}
		return f.Close()
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestOpenReadMissingFile(t *testing.T) {
	m, fs := newRig(0)
	_, err := mpi.Run(m, 2, func(c *mpi.Comm) error {
		_, err := OpenRead(c, fs, "/missing.dat", 0)
		if err == nil {
			return fmt.Errorf("OpenRead(missing) succeeded")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAggregatorsClampedToSize(t *testing.T) {
	m, fs := newRig(0)
	_, err := mpi.Run(m, 2, func(c *mpi.Comm) error {
		f, err := OpenCreate(c, fs, "/clamp.dat", 100)
		if err != nil {
			return err
		}
		if f.aggs != 2 {
			return fmt.Errorf("aggs = %d, want 2", f.aggs)
		}
		return f.Close()
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCollectiveCostsExceedIndependent(t *testing.T) {
	// The whole point of the substrate: collective (two-phase) I/O must cost
	// more virtual time than an equal independent write, because it adds
	// exchange and pack phases.
	const n, per = 8, 1 << 20
	runPhase := func(collective bool) time.Duration {
		m, fs := newRig(128 << 20)
		m.SetConcurrency(n)
		var phase time.Duration
		_, err := mpi.Run(m, n, func(c *mpi.Comm) error {
			f, err := OpenCreate(c, fs, "/cost.dat", 4)
			if err != nil {
				return err
			}
			// Pre-size the file so POSIX hole-zeroing doesn't pollute the
			// comparison, then time only the write phase.
			if c.Rank() == 0 {
				pre, err := fs.Open(c.Clock(), "/cost.dat")
				if err != nil {
					return err
				}
				if err := pre.Truncate(c.Clock(), n*per); err != nil {
					return err
				}
			}
			if err := c.Barrier(); err != nil {
				return err
			}
			t0 := c.Clock().Now()
			buf := make([]byte, per)
			off := int64(c.Rank()) * per
			if collective {
				if err := f.WriteRangesAll([]Range{{Off: off, Data: buf}}); err != nil {
					return err
				}
			} else {
				if _, err := f.WriteAt(buf, off); err != nil {
					return err
				}
				if err := c.Barrier(); err != nil {
					return err
				}
			}
			dt := c.Clock().Now() - t0
			mx, err := c.AllreduceU64(uint64(dt), mpi.OpMax)
			if err != nil {
				return err
			}
			if c.Rank() == 0 {
				phase = time.Duration(mx)
			}
			return f.Close()
		})
		if err != nil {
			panic(err)
		}
		return phase
	}
	coll := runPhase(true)
	ind := runPhase(false)
	if coll <= ind {
		t.Fatalf("collective %v not slower than independent %v", coll, ind)
	}
}

func TestMergeRuns(t *testing.T) {
	in := []request{{0, 10}, {10, 5}, {20, 5}, {22, 3}, {30, 1}}
	out := mergeRuns(in)
	want := []request{{0, 15}, {20, 5}, {30, 1}}
	if len(out) != len(want) {
		t.Fatalf("mergeRuns = %+v", out)
	}
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("mergeRuns[%d] = %+v, want %+v", i, out[i], want[i])
		}
	}
}

func TestEachChunkErrors(t *testing.T) {
	if err := eachChunk([]byte{1, 2, 3}, func(int64, []byte) error { return nil }); err == nil {
		t.Fatal("short header accepted")
	}
	b := appendChunk(nil, 5, []byte("abc"))
	if err := eachChunk(b[:len(b)-1], func(int64, []byte) error { return nil }); err == nil {
		t.Fatal("truncated payload accepted")
	}
	var got []string
	b = appendChunk(b, 99, []byte("xy"))
	err := eachChunk(b, func(off int64, data []byte) error {
		got = append(got, fmt.Sprintf("%d:%s", off, data))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != "5:abc" || got[1] != "99:xy" {
		t.Fatalf("chunks = %v", got)
	}
}

// TestQuickRangesCollectiveMatchesReference drives WriteRangesAll and
// ReadRangesAll with randomized noncontiguous ranges across ranks and checks
// the file against a reference buffer maintained with plain writes.
func TestQuickRangesCollectiveMatchesReference(t *testing.T) {
	const (
		ranks    = 5
		fileSize = 1 << 16
		rounds   = 12
	)
	for seed := int64(0); seed < 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ref := make([]byte, fileSize)
		m, fs := newRig(8 << 20)

		// Pre-generate each round's per-rank ranges so ranks agree.
		type plan struct{ offs, lens []int64 }
		plans := make([][]plan, rounds)
		for r := range plans {
			plans[r] = make([]plan, ranks)
			// Split the file into disjoint strips per rank for writes.
			for k := 0; k < ranks; k++ {
				n := rng.Intn(4) + 1
				p := plan{}
				strip := int64(fileSize / ranks)
				base := int64(k) * strip
				for j := 0; j < n; j++ {
					l := int64(rng.Intn(2000) + 1)
					if l > strip/int64(n) {
						l = strip / int64(n)
					}
					off := base + int64(j)*(strip/int64(n)) + int64(rng.Intn(int(strip/int64(n)-l+1)))
					p.offs = append(p.offs, off)
					p.lens = append(p.lens, l)
				}
				plans[r][k] = p
			}
		}
		fill := func(round, rank int, idx int, l int64) []byte {
			b := make([]byte, l)
			for i := range b {
				b[i] = byte(round*31 + rank*7 + idx*3 + i)
			}
			return b
		}
		// Maintain the reference.
		for r := 0; r < rounds; r++ {
			for k := 0; k < ranks; k++ {
				p := plans[r][k]
				for j := range p.offs {
					copy(ref[p.offs[j]:p.offs[j]+p.lens[j]], fill(r, k, j, p.lens[j]))
				}
			}
		}

		_, err := mpi.Run(m, ranks, func(c *mpi.Comm) error {
			f, err := OpenCreate(c, fs, "/quick.dat", 3)
			if err != nil {
				return err
			}
			for r := 0; r < rounds; r++ {
				p := plans[r][c.Rank()]
				var rgs []Range
				for j := range p.offs {
					rgs = append(rgs, Range{Off: p.offs[j], Data: fill(r, c.Rank(), j, p.lens[j])})
				}
				if err := f.WriteRangesAll(rgs); err != nil {
					return err
				}
			}
			// Collective read-back of random windows; compare to reference.
			for probe := 0; probe < 6; probe++ {
				off := int64((probe*7919 + c.Rank()*131) % (fileSize - 512))
				dst := make([]byte, 512)
				if err := f.ReadRangesAll([]Range{{Off: off, Data: dst}}); err != nil {
					return err
				}
				if !bytes.Equal(dst, ref[off:off+512]) {
					return fmt.Errorf("seed %d rank %d: window at %d mismatches reference", seed, c.Rank(), off)
				}
			}
			return f.Close()
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}
