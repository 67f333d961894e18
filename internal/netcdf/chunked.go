package netcdf

import (
	"fmt"

	"pmemcpy/internal/filter"
	"pmemcpy/internal/mpi"
	"pmemcpy/internal/node"
	"pmemcpy/internal/pio"
	"pmemcpy/internal/pio/filefmt"
)

// Chunked mode, the HDF5 alternative to the default contiguous layout that
// the paper describes: "The chunked mode divides the array into fixed-size
// sub-arrays (i.e., chunks) ... HDF5 also allows for the definition of
// filters, which are operations to perform on individual chunks, such as
// compression."
//
// Each rank's written block becomes one chunk, optionally passed through a
// filter pipeline (package filter). Chunks are variable-size, so file space
// is allocated collectively (an exclusive scan of stored sizes per write
// call — the way parallel HDF5 allocates filtered chunks) and each rank then
// writes its chunk independently; rank 0 appends a global chunk index and
// footer at close. Reads locate intersecting chunks via the index, undo the
// filter, and scatter the intersection — no rearrangement communication,
// which is why chunked mode trades NetCDF's contiguous-read friendliness for
// write locality.
//
// The file is filefmt's block log; what is chunked mode's own is the
// per-write allocation and the filter transform.
var chunkFormat = filefmt.Log{Lib: "netcdf", Magic: 0x4B4E484335464448, Filtered: true} // "HDF5CHNK"

type chunkedWriter struct {
	*filefmt.LogWriter
	flt filter.Filter
}

// openChunkedWrite builds the chunked-mode writer.
func (l Library) openChunkedWrite(c *mpi.Comm, n *node.Node, path string) (pio.Writer, error) {
	flt, err := filter.Get(l.Filter)
	if err != nil {
		return nil, err
	}
	lw, err := chunkFormat.Create(c, n, path, chunkFormat.Header(0))
	if err != nil {
		return nil, err
	}
	lw.Filter = l.Filter
	if lw.File, err = n.FS.Open(c.Clock(), path); err != nil {
		return nil, err
	}
	return &chunkedWriter{LogWriter: lw, flt: flt}, nil
}

// chargeLibrary accounts n bytes streamed through the library's internal
// processing the given number of times (CPU- and DRAM-bound).
func chargeLibrary(c *mpi.Comm, n uint64, passes float64) {
	m := c.Machine()
	m.ChargePasses(c.Clock(), int64(n), passes, m.Config().PackBPS, c.Size())
}

// DefineVar implements pio.Writer.
func (w *chunkedWriter) DefineVar(v pio.Var) error {
	if err := w.LogWriter.DefineVar(v); err != nil {
		return err
	}
	w.Comm.Machine().ChargeMetaOp(w.Comm.Clock())
	return nil
}

// Write implements pio.Writer: the block becomes one filtered chunk;
// collective space allocation, independent chunk write.
func (w *chunkedWriter) Write(name string, offs, counts []uint64, data []byte) error {
	_, raw, err := w.Begin(name, offs, counts, data)
	if err != nil {
		return err
	}
	// HDF5 internal hyperslab + datatype passes, as in contiguous mode.
	chargeLibrary(w.Comm, uint64(len(raw)), 2)
	b := filefmt.Block{Name: name, Offs: offs, Counts: counts, RawLen: uint64(len(raw))}
	payload := raw
	if w.flt != nil {
		enc, err := w.flt.Encode(nil, raw)
		if err != nil {
			return err
		}
		chargeLibrary(w.Comm, b.RawLen, w.flt.Passes())
		if len(enc) < len(raw) {
			payload, b.Filtered = enc, true
		}
	}
	b.StoredLen = uint64(len(payload))
	off, err := w.Alloc(b.StoredLen)
	if err != nil {
		return err
	}
	if _, err := w.File.WriteAt(w.Comm.Clock(), payload, off); err != nil {
		return err
	}
	b.FileOff = uint64(off)
	w.Record(b)
	return nil
}

// openChunkedRead parses the chunk index.
func (l Library) openChunkedRead(c *mpi.Comm, n *node.Node, path string) (pio.Reader, error) {
	f, err := n.FS.Open(c.Clock(), path)
	if err != nil {
		return nil, err
	}
	r, fltSpec, err := chunkFormat.ReadIndex(c, f)
	if err != nil {
		return nil, err
	}
	flt, err := filter.Get(fltSpec)
	if err != nil {
		return nil, err
	}
	r.File = f
	r.RequestPasses = 1
	r.Decode = func(v *filefmt.Var, ch filefmt.Block, stored []byte) ([]byte, error) {
		if !ch.Filtered {
			return stored, nil
		}
		if flt == nil {
			return nil, fmt.Errorf("netcdf: chunk of %q filtered but index names no filter", v.Name)
		}
		chargeLibrary(c, ch.RawLen, flt.Passes())
		return flt.Decode(stored, int(ch.RawLen))
	}
	return r, nil
}
