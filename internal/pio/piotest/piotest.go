// Package piotest provides a conformance suite every pio.Library
// implementation must pass: write/read round trips, multiple variables,
// partial and shuffled reads, dims queries, buffer sizes, and error
// behaviour. Each library package runs it from its own tests, so the five
// implementations stay behaviourally interchangeable — which is what makes
// the harness comparison meaningful.
package piotest

import (
	"bytes"
	"fmt"
	"testing"

	"pmemcpy/internal/bytesview"
	"pmemcpy/internal/mpi"
	"pmemcpy/internal/nd"
	"pmemcpy/internal/node"
	"pmemcpy/internal/pio"
	"pmemcpy/internal/serial"
	"pmemcpy/internal/sim"
)

// NewNode builds a default test node (64 MB device).
func NewNode() *node.Node {
	n := node.New(sim.DefaultConfig(), 64<<20)
	n.Machine.SetConcurrency(1)
	return n
}

// pattern fills a float64 block so every element encodes its variable and
// global coordinates, making misplacement detectable.
func pattern(varIdx int, gdims, offs, counts []uint64) []float64 {
	out := make([]float64, nd.Size(counts))
	strides := nd.Strides(gdims)
	idx := make([]uint64, len(counts))
	for i := range out {
		var g uint64
		for d := range idx {
			g += (offs[d] + idx[d]) * strides[d]
		}
		out[i] = float64(varIdx)*1e9 + float64(g)
		for d := len(idx) - 1; d >= 0; d-- {
			idx[d]++
			if idx[d] < counts[d] {
				break
			}
			idx[d] = 0
		}
	}
	return out
}

// RunConformance runs the full suite against lib.
func RunConformance(t *testing.T, lib pio.Library) {
	t.Helper()
	t.Run("RoundTrip1D", func(t *testing.T) { roundTrip1D(t, lib) })
	t.Run("RoundTrip3D", func(t *testing.T) { roundTrip3D(t, lib) })
	t.Run("MultipleVariables", func(t *testing.T) { multipleVariables(t, lib) })
	t.Run("ShuffledRead", func(t *testing.T) { shuffledRead(t, lib) })
	t.Run("PartialRead", func(t *testing.T) { partialRead(t, lib) })
	t.Run("DimsQuery", func(t *testing.T) { dimsQuery(t, lib) })
	t.Run("UnknownVariable", func(t *testing.T) { unknownVariable(t, lib) })
	t.Run("OutOfBoundsBlock", func(t *testing.T) { outOfBounds(t, lib) })
	t.Run("BufferSizes", func(t *testing.T) { bufferSizes(t, lib) })
	t.Run("Int32Data", func(t *testing.T) { int32Data(t, lib) })
}

// decomp maps a variable index and a rank to that rank's block.
type decomp func(vi, rank int) (offs, counts []uint64)

// writePhase runs a write session storing vars over the given decomposition.
func writePhase(c *mpi.Comm, n *node.Node, lib pio.Library, path string, vars []pio.Var, blocks decomp) error {
	w, err := lib.OpenWrite(c, n, path)
	if err != nil {
		return err
	}
	for _, v := range vars {
		if err := w.DefineVar(v); err != nil {
			return err
		}
	}
	for vi, v := range vars {
		offs, counts := blocks(vi, c.Rank())
		data := pattern(vi, v.GlobalDims, offs, counts)
		if err := w.Write(v.Name, offs, counts, bytesview.Bytes(data)); err != nil {
			return err
		}
	}
	return w.Close()
}

// roundTrip writes vars over blocks on the given number of ranks, reopens the
// dataset, and hands every rank its reader; the reader is closed after body.
func roundTrip(t *testing.T, lib pio.Library, path string, ranks int, vars []pio.Var, blocks decomp,
	body func(c *mpi.Comm, r pio.Reader) error) {
	t.Helper()
	n := NewNode()
	_, err := mpi.Run(n.Machine, ranks, func(c *mpi.Comm) error {
		if err := writePhase(c, n, lib, path, vars, blocks); err != nil {
			return err
		}
		r, err := lib.OpenRead(c, n, path)
		if err != nil {
			return err
		}
		if err := body(c, r); err != nil {
			return err
		}
		return r.Close()
	})
	if err != nil {
		t.Fatal(err)
	}
}

// rows splits dim 0 of every variable evenly across ranks.
func rows(vars []pio.Var, ranks int) decomp {
	return func(vi, rank int) (offs, counts []uint64) {
		gdims := vars[vi].GlobalDims
		offs = make([]uint64, len(gdims))
		counts = append([]uint64(nil), gdims...)
		per := gdims[0] / uint64(ranks)
		offs[0] = per * uint64(rank)
		counts[0] = per
		if rank == ranks-1 {
			counts[0] = gdims[0] - offs[0]
		}
		return offs, counts
	}
}

// readVerify reads one block of float64 variable vars[vi] and checks every
// element against the pattern.
func readVerify(r pio.Reader, vars []pio.Var, vi int, offs, counts []uint64) error {
	got := make([]byte, nd.Size(counts)*8)
	if err := r.Read(vars[vi].Name, offs, counts, got); err != nil {
		return err
	}
	want := pattern(vi, vars[vi].GlobalDims, offs, counts)
	if !bytes.Equal(bytesview.Bytes(want), got) {
		return fmt.Errorf("%s: block (%v,%v) content mismatch", vars[vi].Name, offs, counts)
	}
	return nil
}

func roundTrip1D(t *testing.T, lib pio.Library) {
	const ranks = 4
	vars := []pio.Var{{Name: "A", Type: serial.Float64, GlobalDims: []uint64{400}}}
	own := rows(vars, ranks)
	roundTrip(t, lib, "/rt1d", ranks, vars, own, func(c *mpi.Comm, r pio.Reader) error {
		offs, counts := own(0, c.Rank())
		return readVerify(r, vars, 0, offs, counts)
	})
}

// cube is the 3-D variable of the RoundTrip3D case and of WriteCube.
var cube = []pio.Var{{Name: "cube", Type: serial.Float64, GlobalDims: []uint64{16, 12, 10}}}

// cubeBlocks decomposes cube near-cubically over ranks; the last block along
// each dimension absorbs the remainder.
func cubeBlocks(ranks int) decomp {
	grid := nd.Decompose(ranks, 3)
	gdims := cube[0].GlobalDims
	return func(_, rank int) (offs, counts []uint64) {
		offs = make([]uint64, 3)
		counts = make([]uint64, 3)
		r := uint64(rank)
		coord := []uint64{r / (grid[1] * grid[2]), (r / grid[2]) % grid[1], r % grid[2]}
		for d := 0; d < 3; d++ {
			per := gdims[d] / grid[d]
			offs[d] = coord[d] * per
			counts[d] = per
			if coord[d] == grid[d]-1 {
				counts[d] = gdims[d] - offs[d]
			}
		}
		return offs, counts
	}
}

// WriteCube runs one write session storing the RoundTrip3D variable at path,
// decomposed over c's ranks — the dataset whose file bytes the format tests
// pin.
func WriteCube(c *mpi.Comm, n *node.Node, lib pio.Library, path string) error {
	return writePhase(c, n, lib, path, cube, cubeBlocks(c.Size()))
}

func roundTrip3D(t *testing.T, lib pio.Library) {
	const ranks = 8
	own := cubeBlocks(ranks)
	roundTrip(t, lib, "/rt3d", ranks, cube, own, func(c *mpi.Comm, r pio.Reader) error {
		offs, counts := own(0, c.Rank())
		return readVerify(r, cube, 0, offs, counts)
	})
}

func multipleVariables(t *testing.T, lib pio.Library) {
	const ranks = 4
	vars := []pio.Var{
		{Name: "rect0", Type: serial.Float64, GlobalDims: []uint64{64, 8}},
		{Name: "rect1", Type: serial.Float64, GlobalDims: []uint64{32, 16}},
		{Name: "rect2", Type: serial.Float64, GlobalDims: []uint64{128}},
	}
	own := rows(vars, ranks)
	roundTrip(t, lib, "/multi", ranks, vars, own, func(c *mpi.Comm, r pio.Reader) error {
		for vi := range vars {
			offs, counts := own(vi, c.Rank())
			if err := readVerify(r, vars, vi, offs, counts); err != nil {
				return err
			}
		}
		return nil
	})
}

func shuffledRead(t *testing.T, lib pio.Library) {
	const ranks = 4
	vars := []pio.Var{{Name: "S", Type: serial.Float64, GlobalDims: []uint64{64, 16}}}
	own := rows(vars, ranks)
	roundTrip(t, lib, "/shuf", ranks, vars, own, func(c *mpi.Comm, r pio.Reader) error {
		// Read the block written by a different rank.
		offs, counts := own(0, (c.Rank()+1)%ranks)
		return readVerify(r, vars, 0, offs, counts)
	})
}

func partialRead(t *testing.T, lib pio.Library) {
	const ranks = 2
	vars := []pio.Var{{Name: "P", Type: serial.Float64, GlobalDims: []uint64{32, 8}}}
	roundTrip(t, lib, "/part", ranks, vars, rows(vars, ranks), func(_ *mpi.Comm, r pio.Reader) error {
		// A window straddling the boundary between the two ranks' blocks.
		return readVerify(r, vars, 0, []uint64{12, 2}, []uint64{8, 4})
	})
}

func dimsQuery(t *testing.T, lib pio.Library) {
	vars := []pio.Var{{Name: "D", Type: serial.Float64, GlobalDims: []uint64{10, 20, 30}}}
	roundTrip(t, lib, "/dims", 2, vars, rows(vars, 2), func(_ *mpi.Comm, r pio.Reader) error {
		dims, err := r.Dims("D")
		if err != nil {
			return err
		}
		if len(dims) != 3 || dims[0] != 10 || dims[1] != 20 || dims[2] != 30 {
			return fmt.Errorf("Dims = %v", dims)
		}
		return nil
	})
}

func unknownVariable(t *testing.T, lib pio.Library) {
	vars := []pio.Var{{Name: "K", Type: serial.Float64, GlobalDims: []uint64{8}}}
	roundTrip(t, lib, "/unk", 2, vars, rows(vars, 2), func(_ *mpi.Comm, r pio.Reader) error {
		if _, err := r.Dims("nope"); err == nil {
			return fmt.Errorf("Dims(unknown) succeeded")
		}
		if err := r.Read("nope", []uint64{0}, []uint64{8}, make([]byte, 64)); err == nil {
			return fmt.Errorf("Read(unknown) succeeded")
		}
		return nil
	})
}

func outOfBounds(t *testing.T, lib pio.Library) {
	n := NewNode()
	v := pio.Var{Name: "O", Type: serial.Float64, GlobalDims: []uint64{8}}
	_, err := mpi.Run(n.Machine, 1, func(c *mpi.Comm) error {
		w, err := lib.OpenWrite(c, n, "/oob")
		if err != nil {
			return err
		}
		if err := w.DefineVar(v); err != nil {
			return err
		}
		if err := w.Write("O", []uint64{4}, []uint64{8}, make([]byte, 64)); err == nil {
			return fmt.Errorf("out-of-bounds Write succeeded")
		}
		// Valid write so Close has something consistent.
		data := pattern(0, v.GlobalDims, []uint64{0}, []uint64{8})
		if err := w.Write("O", []uint64{0}, []uint64{8}, bytesview.Bytes(data)); err != nil {
			return err
		}
		return w.Close()
	})
	if err != nil {
		t.Fatal(err)
	}
}

// bufferSizes pins the buffer contract: a buffer shorter than the block is
// rejected, one longer is accepted and only its first block-sized bytes used.
func bufferSizes(t *testing.T, lib pio.Library) {
	n := NewNode()
	v := pio.Var{Name: "B", Type: serial.Float64, GlobalDims: []uint64{8}}
	all, eight := []uint64{0}, []uint64{8}
	_, err := mpi.Run(n.Machine, 1, func(c *mpi.Comm) error {
		w, err := lib.OpenWrite(c, n, "/bufs")
		if err != nil {
			return err
		}
		if err := w.DefineVar(v); err != nil {
			return err
		}
		want := bytesview.Bytes(pattern(0, v.GlobalDims, all, eight))
		if err := w.Write("B", all, eight, want[:56]); err == nil {
			return fmt.Errorf("short data accepted")
		}
		if err := w.Write("B", all, eight, append(want[:64:64], make([]byte, 16)...)); err != nil {
			return fmt.Errorf("oversized data rejected: %w", err)
		}
		if err := w.Close(); err != nil {
			return err
		}
		r, err := lib.OpenRead(c, n, "/bufs")
		if err != nil {
			return err
		}
		if err := r.Read("B", all, eight, make([]byte, 56)); err == nil {
			return fmt.Errorf("short dst accepted")
		}
		got := make([]byte, 80)
		if err := r.Read("B", all, eight, got); err != nil {
			return fmt.Errorf("oversized dst rejected: %w", err)
		}
		if !bytes.Equal(got[:64], want) {
			return fmt.Errorf("oversized round trip content mismatch")
		}
		return r.Close()
	})
	if err != nil {
		t.Fatal(err)
	}
}

func int32Data(t *testing.T, lib pio.Library) {
	n := NewNode()
	vars := []pio.Var{{Name: "I32", Type: serial.Int32, GlobalDims: []uint64{100}}}
	_, err := mpi.Run(n.Machine, 2, func(c *mpi.Comm) error {
		w, err := lib.OpenWrite(c, n, "/i32")
		if err != nil {
			return err
		}
		if err := w.DefineVar(vars[0]); err != nil {
			return err
		}
		offs, counts := rows(vars, 2)(0, c.Rank())
		vals := make([]int32, counts[0])
		for i := range vals {
			vals[i] = int32(offs[0]) + int32(i)
		}
		if err := w.Write("I32", offs, counts, bytesview.Bytes(vals)); err != nil {
			return err
		}
		if err := w.Close(); err != nil {
			return err
		}
		r, err := lib.OpenRead(c, n, "/i32")
		if err != nil {
			return err
		}
		dst := make([]byte, counts[0]*4)
		if err := r.Read("I32", offs, counts, dst); err != nil {
			return err
		}
		got := bytesview.OfCopy[int32](dst)
		for i, g := range got {
			if g != int32(offs[0])+int32(i) {
				return fmt.Errorf("int32[%d] = %d", i, g)
			}
		}
		return r.Close()
	})
	if err != nil {
		t.Fatal(err)
	}
}
