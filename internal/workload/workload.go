// Package workload generates the paper's evaluation workload: a 3-D domain
// decomposition write and its symmetric read-back — "a large memory regular
// stencil code common in compute models today", inspired by the S3D
// combustion code. The write-only phase generates 10 3-D rectangles
// totalling a configured number of bytes (40 GB in the paper), divided
// equally among the processes as double-precision values; the read phase
// reads back exactly what each process wrote.
package workload

import (
	"fmt"
	"strings"

	"pmemcpy/internal/bytesview"
	"pmemcpy/internal/core"
	"pmemcpy/internal/mpi"
	"pmemcpy/internal/nd"
	"pmemcpy/internal/pio"
	"pmemcpy/internal/serial"
	"pmemcpy/internal/sim"
)

// DefaultVars is the paper's "10 3-D rectangles".
const DefaultVars = 10

// Spec describes one experiment's workload.
type Spec struct {
	Ranks int
	Vars  []pio.Var

	grid   []uint64 // 3-D processor grid, product == Ranks
	block  []uint64 // per-rank block extents (equal for all ranks)
	global []uint64 // global extents = grid .* block
}

// NewSpec builds a workload of nvars 3-D float64 variables totalling
// approximately totalBytes, divided equally among ranks. The per-rank block
// is shaped near-cubically, and global extents are block*grid, so every rank
// writes exactly the same number of elements (the paper: "Each process
// writes an equal amount of data").
func NewSpec(totalBytes int64, nvars, ranks int) (*Spec, error) {
	if totalBytes <= 0 || nvars <= 0 || ranks <= 0 {
		return nil, fmt.Errorf("workload: invalid spec (%d bytes, %d vars, %d ranks)",
			totalBytes, nvars, ranks)
	}
	perVar := totalBytes / int64(nvars)
	blockElems := perVar / int64(ranks) / 8
	if blockElems < 8 {
		return nil, fmt.Errorf("workload: %d bytes across %d vars x %d ranks leaves blocks too small",
			totalBytes, nvars, ranks)
	}
	grid := nd.Decompose(ranks, 3)
	block := nearCube(uint64(blockElems))
	global := make([]uint64, 3)
	for d := 0; d < 3; d++ {
		global[d] = grid[d] * block[d]
	}
	s := &Spec{Ranks: ranks, grid: grid, block: block, global: global}
	for v := 0; v < nvars; v++ {
		s.Vars = append(s.Vars, pio.Var{
			Name:       fmt.Sprintf("rect%d", v),
			Type:       serial.Float64,
			GlobalDims: append([]uint64(nil), global...),
		})
	}
	return s, nil
}

// nearCube shapes a block of approximately n elements as a near-perfect
// cube, the geometry of a regular stencil decomposition. The exact element
// count may differ slightly from n; callers report the realized size. Exact
// factorization is deliberately avoided — awkward prime factors would
// produce degenerate slab shapes no stencil code uses.
func nearCube(n uint64) []uint64 {
	b := uint64(1)
	for (b+1)*(b+1)*(b+1) <= n {
		b++
	}
	// Grow single dimensions while the product still fits in n.
	dims := []uint64{b, b, b}
	for d := 0; d < 3; d++ {
		grown := dims[d] + 1
		others := uint64(1)
		for i := 0; i < 3; i++ {
			if i != d {
				others *= dims[i]
			}
		}
		if grown*others <= n {
			dims[d] = grown
		}
	}
	return dims
}

// GlobalDims returns the global extents of each variable.
func (s *Spec) GlobalDims() []uint64 { return s.global }

// BlockElems returns the number of elements in one rank's block of one
// variable.
func (s *Spec) BlockElems() uint64 { return nd.Size(s.block) }

// TotalBytes returns the exact workload size (after rounding to the grid):
// every rank moves one block of every variable.
func (s *Spec) TotalBytes() int64 {
	return int64(s.BlockElems()) * 8 * int64(len(s.Vars)) * int64(s.Ranks)
}

// Block returns the offsets and counts of rank's block (identical for every
// variable; the decomposition is the paper's equal split).
func (s *Spec) Block(rank int) (offs, counts []uint64) {
	r := uint64(rank)
	coord := []uint64{
		r / (s.grid[1] * s.grid[2]),
		(r / s.grid[2]) % s.grid[1],
		r % s.grid[2],
	}
	offs = make([]uint64, 3)
	counts = append([]uint64(nil), s.block...)
	for d := 0; d < 3; d++ {
		offs[d] = coord[d] * s.block[d]
	}
	return offs, counts
}

// element returns the deterministic value of a global element of a variable,
// making every byte of the workload verifiable.
func element(varIdx int, globalElem uint64) float64 {
	return float64(varIdx+1)*1e12 + float64(globalElem)
}

// ReadBlock returns the offsets and counts a reader rank accesses under the
// given pattern — the read-pattern taxonomy of the paper's workload source
// ("Six degrees of scientific data: reading patterns for extreme scale
// science IO"):
//
//   - PatternSame: the symmetric read-back measured in Figure 7 — readRanks
//     must equal the writer count and each rank re-reads its own block.
//   - PatternRestart: restart decomposition — readRanks (possibly different
//     from the writer count) re-decompose the same global domain, so reads
//     cross writer-block boundaries.
//   - PatternPlane: each rank reads one full 2-D plane of the domain
//     (dimension-0 index = rank), the visualization/analysis access.
func (s *Spec) ReadBlock(pattern Pattern, readRanks, rank int) (offs, counts []uint64, err error) {
	switch pattern {
	case PatternSame:
		if readRanks != s.Ranks {
			return nil, nil, fmt.Errorf("workload: symmetric pattern needs %d readers, got %d",
				s.Ranks, readRanks)
		}
		offs, counts = s.Block(rank)
		return offs, counts, nil
	case PatternRestart:
		grid := nd.Decompose(readRanks, 3)
		r := uint64(rank)
		coord := []uint64{
			r / (grid[1] * grid[2]),
			(r / grid[2]) % grid[1],
			r % grid[2],
		}
		offs = make([]uint64, 3)
		counts = make([]uint64, 3)
		for d := 0; d < 3; d++ {
			// Uneven split: the first rem coordinates get one extra element.
			base := s.global[d] / grid[d]
			rem := s.global[d] % grid[d]
			offs[d] = coord[d]*base + min(coord[d], rem)
			counts[d] = base
			if coord[d] < rem {
				counts[d]++
			}
		}
		return offs, counts, nil
	case PatternPlane:
		plane := uint64(rank) % s.global[0]
		offs = []uint64{plane, 0, 0}
		counts = []uint64{1, s.global[1], s.global[2]}
		return offs, counts, nil
	}
	return nil, nil, fmt.Errorf("workload: unknown read pattern %d", pattern)
}

// Pattern selects a read access pattern.
type Pattern int

// Read patterns.
const (
	// PatternSame is the paper's symmetric read-back.
	PatternSame Pattern = iota
	// PatternRestart re-decomposes the domain across a (possibly different)
	// reader count.
	PatternRestart
	// PatternPlane reads full 2-D planes.
	PatternPlane
)

// String names the pattern.
func (p Pattern) String() string {
	switch p {
	case PatternSame:
		return "same"
	case PatternRestart:
		return "restart"
	case PatternPlane:
		return "plane"
	}
	return fmt.Sprintf("pattern(%d)", int(p))
}

// ParsePattern parses a pattern name.
func ParsePattern(s string) (Pattern, error) {
	switch s {
	case "", "same":
		return PatternSame, nil
	case "restart":
		return PatternRestart, nil
	case "plane":
		return PatternPlane, nil
	}
	return 0, fmt.Errorf("workload: unknown read pattern %q", s)
}

// VerifyBlock checks an arbitrary block of a variable against the generator
// and charges the verification pass. oversub is computed from the reading
// job's size.
func (s *Spec) VerifyBlock(c *mpi.Comm, m *sim.Machine, varIdx int, offs, counts []uint64,
	buf []byte, readers int) error {
	if err := nd.CheckBlock(s.global, offs, counts); err != nil {
		return err
	}
	n := nd.Size(counts)
	if uint64(len(buf)) < n*8 {
		return fmt.Errorf("workload: verify buffer %d bytes, block needs %d", len(buf), n*8)
	}
	vals := bytesview.OfCopy[float64](buf[:n*8])
	strides := nd.Strides(s.global)
	idx := make([]uint64, 3)
	for i, got := range vals {
		g := (offs[0]+idx[0])*strides[0] + (offs[1]+idx[1])*strides[1] + (offs[2]+idx[2])*strides[2]
		if want := element(varIdx, g); got != want {
			return fmt.Errorf("workload: rect%d block %v+%v element %d = %g, want %g",
				varIdx, offs, counts, i, got, want)
		}
		nd.Next(idx, counts)
	}
	m.ChargePasses(c.Clock(), int64(n*8), 1, m.Config().TouchBPS, readers)
	return nil
}

// Fill writes rank's block of variable varIdx into buf (len >= BlockElems)
// and charges the generation pass (the cube is produced in DRAM before I/O,
// as in the paper's workload). It returns the slice actually filled.
func (s *Spec) Fill(c *mpi.Comm, m *sim.Machine, varIdx, rank int, buf []float64) []float64 {
	offs, counts := s.Block(rank)
	n := nd.Size(counts)
	out := buf[:n]
	strides := nd.Strides(s.global)
	idx := make([]uint64, 3)
	for i := range out {
		g := (offs[0]+idx[0])*strides[0] + (offs[1]+idx[1])*strides[1] + (offs[2]+idx[2])*strides[2]
		out[i] = element(varIdx, g)
		nd.Next(idx, counts)
	}
	m.ChargePasses(c.Clock(), int64(n*8), 1, m.Config().TouchBPS, s.Ranks)
	return out
}

// Verify checks that buf holds rank's block of variable varIdx and charges
// the verification pass, as VerifyBlock does for rank's block with the whole
// job reading.
func (s *Spec) Verify(c *mpi.Comm, m *sim.Machine, varIdx, rank int, buf []byte) error {
	offs, counts := s.Block(rank)
	return s.VerifyBlock(c, m, varIdx, offs, counts, buf, s.Ranks)
}

// DemoVars and DemoElems shape the demo dataset the inspection tools (pmemcli,
// pmemfsck -deep) populate with StoreDemo: DemoVars 1-D float64 arrays of
// ranks*DemoElems elements, one DemoElems block per rank.
const DemoVars, DemoElems = 3, 64

// DemoBlock returns rank's block of demo array v — its name, the values (every
// element encodes its variable and global index), and where the block sits.
func DemoBlock(v, rank int) (name string, data []float64, offs, counts []uint64) {
	data, off := make([]float64, DemoElems), uint64(rank)*DemoElems
	for i := range data {
		data[i] = float64(v)*1e6 + float64(off) + float64(i)
	}
	return fmt.Sprintf("rect%d", v), data, []uint64{off}, []uint64{DemoElems}
}

// StoreDemo stores the calling rank's share of the demo dataset in p, which
// every rank of p's communicator populates together. Rank 0 stores the
// scalar "sim/timestep" and two strings: "sim/label" holds label (short
// enough to live in its record), "sim/notes" holds it ten times (a block of
// its own). Every rank declares each demo array and stores its DemoBlock,
// queued on p's asynchronous pipeline when async: the caller flushes.
func StoreDemo(p *core.PMEM, label string, async bool) error {
	c := p.Comm()
	if c.Rank() == 0 {
		ts := &serial.Datum{Type: serial.Int64, Payload: bytesview.Bytes([]int64{42})}
		if err := p.StoreDatum("sim/timestep", ts); err != nil {
			return err
		}
		if err := p.StoreString("sim/label", label); err != nil {
			return err
		}
		if err := p.StoreString("sim/notes", strings.Repeat(label+"; ", 10)); err != nil {
			return err
		}
	}
	for v := 0; v < DemoVars; v++ {
		name, data, offs, counts := DemoBlock(v, c.Rank())
		if err := p.Alloc(name, serial.Float64, []uint64{uint64(c.Size()) * DemoElems}); err != nil {
			return err
		}
		if async {
			p.StoreBlockAsync(name, offs, counts, bytesview.Bytes(data))
		} else if err := p.StoreBlock(name, offs, counts, bytesview.Bytes(data)); err != nil {
			return err
		}
	}
	return nil
}
