package workload

import (
	"testing"
	"testing/quick"

	"pmemcpy/internal/bytesview"
	"pmemcpy/internal/mpi"
	"pmemcpy/internal/nd"
	"pmemcpy/internal/sim"
)

func TestNewSpecBasics(t *testing.T) {
	s, err := NewSpec(100<<20, 10, 24)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Vars) != 10 {
		t.Fatalf("vars = %d", len(s.Vars))
	}
	grid := s.grid
	prod := uint64(1)
	for _, g := range grid {
		prod *= g
	}
	if prod != 24 {
		t.Fatalf("grid %v product %d", grid, prod)
	}
	// Realized size within 30% of requested (near-cubic rounding).
	if s.TotalBytes() < 70<<20 || s.TotalBytes() > 100<<20 {
		t.Fatalf("TotalBytes = %d, requested %d", s.TotalBytes(), 100<<20)
	}
	for _, v := range s.Vars {
		if len(v.GlobalDims) != 3 {
			t.Fatalf("var %s dims %v", v.Name, v.GlobalDims)
		}
	}
}

func TestNewSpecRejectsDegenerate(t *testing.T) {
	if _, err := NewSpec(0, 10, 8); err == nil {
		t.Error("zero bytes accepted")
	}
	if _, err := NewSpec(1<<20, 0, 8); err == nil {
		t.Error("zero vars accepted")
	}
	if _, err := NewSpec(1<<20, 10, 0); err == nil {
		t.Error("zero ranks accepted")
	}
	if _, err := NewSpec(100, 10, 8); err == nil {
		t.Error("too-small blocks accepted")
	}
}

// TestBlocksPartitionGlobal checks that rank blocks tile the global extents
// exactly: equal sizes, no overlap, full coverage.
func TestBlocksPartitionGlobal(t *testing.T) {
	for _, ranks := range []int{1, 2, 8, 16, 24, 32, 48} {
		s, err := NewSpec(64<<20, 4, ranks)
		if err != nil {
			t.Fatal(err)
		}
		covered := make(map[uint64]int)
		gdims := s.GlobalDims()
		total := nd.Size(gdims)
		strides := nd.Strides(gdims)
		for r := 0; r < ranks; r++ {
			offs, counts := s.Block(r)
			if nd.Size(counts) != s.BlockElems() {
				t.Fatalf("ranks=%d rank=%d unequal block %v", ranks, r, counts)
			}
			if err := nd.CheckBlock(gdims, offs, counts); err != nil {
				t.Fatalf("ranks=%d rank=%d: %v", ranks, r, err)
			}
			// Mark corners (full element marking would be slow): mark every
			// element for small cases only.
			if total <= 1<<16 {
				idx := make([]uint64, 3)
				for i := uint64(0); i < nd.Size(counts); i++ {
					g := (offs[0]+idx[0])*strides[0] + (offs[1]+idx[1])*strides[1] + (offs[2]+idx[2])*strides[2]
					covered[g]++
					for d := 2; d >= 0; d-- {
						idx[d]++
						if idx[d] < counts[d] {
							break
						}
						idx[d] = 0
					}
				}
			}
		}
		if total <= 1<<16 {
			if uint64(len(covered)) != total {
				t.Fatalf("ranks=%d covered %d of %d elements", ranks, len(covered), total)
			}
			for g, c := range covered {
				if c != 1 {
					t.Fatalf("ranks=%d element %d covered %d times", ranks, g, c)
				}
			}
		}
	}
}

func TestFillVerifyRoundTrip(t *testing.T) {
	m := sim.NewMachine(sim.DefaultConfig())
	m.SetConcurrency(1)
	s, err := NewSpec(8<<20, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	_, err = mpi.Run(m, 4, func(c *mpi.Comm) error {
		buf := make([]float64, s.BlockElems())
		for vi := range s.Vars {
			vals := s.Fill(c, m, vi, c.Rank(), buf)
			if err := s.Verify(c, m, vi, c.Rank(), bytesview.Bytes(vals)); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestVerifyDetectsCorruption(t *testing.T) {
	m := sim.NewMachine(sim.DefaultConfig())
	m.SetConcurrency(1)
	s, err := NewSpec(8<<20, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	_, err = mpi.Run(m, 2, func(c *mpi.Comm) error {
		buf := make([]float64, s.BlockElems())
		vals := s.Fill(c, m, 0, c.Rank(), buf)
		vals[len(vals)/2] += 1
		if err := s.Verify(c, m, 0, c.Rank(), bytesview.Bytes(vals)); err == nil {
			t.Error("corruption not detected")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDifferentVarsDifferentData(t *testing.T) {
	m := sim.NewMachine(sim.DefaultConfig())
	m.SetConcurrency(1)
	s, err := NewSpec(8<<20, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	_, err = mpi.Run(m, 1, func(c *mpi.Comm) error {
		a := s.Fill(c, m, 0, 0, make([]float64, s.BlockElems()))
		b := s.Fill(c, m, 1, 0, make([]float64, s.BlockElems()))
		if a[0] == b[0] {
			t.Error("rect0 and rect1 generate identical data")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// Property: nearCube always produces a shape within n elements whose aspect
// ratio is bounded.
func TestQuickNearCubeShape(t *testing.T) {
	f := func(raw uint32) bool {
		n := uint64(raw)%1_000_000 + 8
		d := nearCube(n)
		prod := d[0] * d[1] * d[2]
		if prod > n {
			return false
		}
		// At least half the target volume and aspect ratio <= 2.
		if prod*2 < n {
			return false
		}
		mx, mn := d[0], d[0]
		for _, v := range d {
			if v > mx {
				mx = v
			}
			if v < mn {
				mn = v
			}
		}
		return mx <= 2*mn
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestParsePatternAndString(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Pattern
	}{
		{"", PatternSame}, {"same", PatternSame},
		{"restart", PatternRestart}, {"plane", PatternPlane},
	} {
		got, err := ParsePattern(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("ParsePattern(%q) = %v, %v", tc.in, got, err)
		}
	}
	if _, err := ParsePattern("bogus"); err == nil {
		t.Error("ParsePattern(bogus) accepted")
	}
	if PatternRestart.String() != "restart" || PatternPlane.String() != "plane" ||
		PatternSame.String() != "same" {
		t.Error("Pattern.String names wrong")
	}
	if Pattern(99).String() == "" {
		t.Error("unknown pattern has empty name")
	}
}

// TestRestartBlocksPartitionDomain checks that for any reader count the
// restart decomposition tiles the global domain exactly once.
func TestRestartBlocksPartitionDomain(t *testing.T) {
	s, err := NewSpec(16<<20, 2, 24)
	if err != nil {
		t.Fatal(err)
	}
	gdims := s.GlobalDims()
	total := nd.Size(gdims)
	for _, readers := range []int{1, 3, 8, 24, 48} {
		var sum uint64
		seen := map[[3]uint64]bool{}
		for r := 0; r < readers; r++ {
			offs, counts, err := s.ReadBlock(PatternRestart, readers, r)
			if err != nil {
				t.Fatalf("readers=%d rank=%d: %v", readers, r, err)
			}
			if err := nd.CheckBlock(gdims, offs, counts); err != nil {
				t.Fatalf("readers=%d rank=%d: %v", readers, r, err)
			}
			key := [3]uint64{offs[0], offs[1], offs[2]}
			if seen[key] {
				t.Fatalf("readers=%d: duplicate block at %v", readers, offs)
			}
			seen[key] = true
			sum += nd.Size(counts)
		}
		if sum != total {
			t.Fatalf("readers=%d: blocks cover %d of %d elements", readers, sum, total)
		}
	}
}

func TestPlaneBlocksValid(t *testing.T) {
	s, err := NewSpec(16<<20, 2, 8)
	if err != nil {
		t.Fatal(err)
	}
	gdims := s.GlobalDims()
	for r := 0; r < 8; r++ {
		offs, counts, err := s.ReadBlock(PatternPlane, 8, r)
		if err != nil {
			t.Fatal(err)
		}
		if counts[0] != 1 || counts[1] != gdims[1] || counts[2] != gdims[2] {
			t.Fatalf("rank %d plane counts = %v", r, counts)
		}
		if err := nd.CheckBlock(gdims, offs, counts); err != nil {
			t.Fatal(err)
		}
	}
}

func TestSamePatternRequiresMatchingRanks(t *testing.T) {
	s, err := NewSpec(16<<20, 1, 8)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.ReadBlock(PatternSame, 4, 0); err == nil {
		t.Error("symmetric pattern with mismatched reader count accepted")
	}
}

// TestVerifyBlockCrossDecomposition fills writer blocks, assembles a reader
// block from intersections, and VerifyBlock must accept it.
func TestVerifyBlockCrossDecomposition(t *testing.T) {
	m := sim.NewMachine(sim.DefaultConfig())
	m.SetConcurrency(1)
	s, err := NewSpec(8<<20, 1, 8)
	if err != nil {
		t.Fatal(err)
	}
	gdims := s.GlobalDims()
	// Build the full global array from all writers' fills.
	global := make([]byte, nd.Size(gdims)*8)
	_, err = mpi.Run(m, 1, func(c *mpi.Comm) error {
		buf := make([]float64, s.BlockElems())
		for w := 0; w < 8; w++ {
			vals := s.Fill(c, m, 0, w, buf)
			offs, counts := s.Block(w)
			if err := nd.CopyIn(global, gdims, offs, counts, bytesview.Bytes(vals), 8); err != nil {
				return err
			}
		}
		// Reader block under the restart pattern with 3 readers.
		offs, counts, err := s.ReadBlock(PatternRestart, 3, 1)
		if err != nil {
			return err
		}
		blockBytes := make([]byte, nd.Size(counts)*8)
		if err := nd.CopyOut(global, gdims, offs, counts, blockBytes, 8); err != nil {
			return err
		}
		return s.VerifyBlock(c, m, 0, offs, counts, blockBytes, 3)
	})
	if err != nil {
		t.Fatal(err)
	}
}
