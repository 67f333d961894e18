// Package adios implements the ADIOS/BP-style baseline: a log-structured,
// per-process data layout with delayed consistency. Each rank serializes its
// blocks into a DRAM staging buffer (the BP buffer) as the application
// writes, and the whole buffer is flushed to storage with one large
// independent POSIX write at close; rank 0 then appends a global index and
// footer.
//
// This reproduces the exact data path the paper credits and blames:
//
//   - no rearrangement communication — each process writes the data it owns
//     in the format it was produced (so ADIOS beats NetCDF/pNetCDF), but
//   - data is serialized into DRAM first and then copied to PMEM, one full
//     extra pass the paper's pMEMCPY avoids by serializing directly into the
//     mapped device (so pMEMCPY beats ADIOS by the cost of that copy).
//
// The file is filefmt's block log; this package adds what is ADIOS's own: the
// staging buffer, the codec transform, and the one big write at Close.
package adios

import (
	"bytes"

	"pmemcpy/internal/mpi"
	"pmemcpy/internal/node"
	"pmemcpy/internal/pio"
	"pmemcpy/internal/pio/filefmt"
	"pmemcpy/internal/posixfs"
	"pmemcpy/internal/serial"
)

var format = filefmt.Log{Lib: "adios", Magic: 0x314E50425F534F41} // "AOS_BPN1"

// Library is the pio.Library implementation for ADIOS.
type Library struct{}

// Name implements pio.Library.
func (Library) Name() string { return "ADIOS" }

// OpenWrite implements pio.Library.
func (Library) OpenWrite(c *mpi.Comm, n *node.Node, path string) (pio.Writer, error) {
	lw, err := format.Create(c, n, path, nil)
	if err != nil {
		return nil, err
	}
	return &writer{LogWriter: lw, node: n, path: path, codec: serial.Default()}, nil
}

type writer struct {
	*filefmt.LogWriter
	node    *node.Node
	path    string
	codec   serial.Codec
	staging bytes.Buffer
}

// Write implements pio.Writer: serialize the block into the BP staging
// buffer in DRAM. No storage traffic happens until Close (delayed
// consistency).
func (w *writer) Write(name string, offs, counts []uint64, data []byte) error {
	v, data, err := w.Begin(name, offs, counts, data)
	if err != nil {
		return err
	}
	d := &serial.Datum{Type: v.Type, Dims: counts, Payload: data}
	need := w.codec.EncodedSize(d)
	start := w.staging.Len()
	w.staging.Grow(need)
	buf := w.staging.AvailableBuffer()[:need]
	wrote, err := w.codec.EncodeTo(buf, d)
	if err != nil {
		return err
	}
	w.staging.Write(buf[:wrote])

	// Serialization pass into DRAM: CPU encode rate bounded by the DRAM pool.
	m := w.Comm.Machine()
	encPasses, _ := w.codec.CostProfile()
	m.ChargePasses(w.Comm.Clock(), int64(wrote), encPasses, m.Config().SerializeBPS, w.Comm.Size())

	// FileOff is relative to the staging buffer until Close places the buffer.
	w.Record(filefmt.Block{Name: name, Offs: offs, Counts: counts, FileOff: uint64(start), StoredLen: uint64(wrote)})
	return nil
}

// Close implements pio.Writer: flush the staging buffer with one large
// independent write, then rank 0 writes the index and footer.
func (w *writer) Close() error {
	if err := w.Closing(); err != nil {
		return err
	}
	clk := w.Comm.Clock()
	myOff, err := w.Alloc(uint64(w.staging.Len()))
	if err != nil {
		return err
	}
	if w.File, err = w.node.FS.Open(clk, w.path); err != nil {
		return err
	}
	// Rank 0 provisions the file (sparse; holes are unwritten extents) and
	// writes the file header.
	if w.Comm.Rank() == 0 {
		if err := w.File.Truncate(clk, w.Cursor); err != nil {
			return err
		}
		if _, err := w.File.WriteAt(clk, format.Header(uint64(w.Cursor-filefmt.LogHeader)), 0); err != nil {
			return err
		}
	}
	if err := w.Comm.Barrier(); err != nil {
		return err
	}
	// The one big copy: staging DRAM buffer -> storage, independent I/O.
	if w.staging.Len() > 0 {
		if _, err := w.File.WriteAt(clk, w.staging.Bytes(), myOff); err != nil {
			return err
		}
	}
	for i := range w.Blocks {
		w.Blocks[i].FileOff += uint64(myOff)
	}
	return w.Finish()
}

// OpenRead implements pio.Library. Rank 0 reads the index through a handle of
// its own before every rank opens the one it reads blocks through.
func (Library) OpenRead(c *mpi.Comm, n *node.Node, path string) (pio.Reader, error) {
	clk := c.Clock()
	var f0 *posixfs.File
	if c.Rank() == 0 {
		var err error
		if f0, err = n.FS.Open(clk, path); err != nil {
			return nil, err
		}
		defer f0.Close()
	}
	r, _, err := format.ReadIndex(c, f0)
	if err != nil {
		return nil, err
	}
	if r.File, err = n.FS.Open(clk, path); err != nil {
		return nil, err
	}
	codec := serial.Default()
	_, decPasses := codec.CostProfile()
	m := c.Machine()
	// The double-move path the paper measures: "ADIOS requires the serialized
	// data to be copied from PMEM into DRAM and then deserialized into another
	// DRAM buffer."
	r.Decode = func(v *filefmt.Var, b filefmt.Block, enc []byte) ([]byte, error) {
		d, err := codec.Decode(enc, &serial.Datum{Type: v.Type, Dims: b.Counts})
		if err != nil {
			return nil, err
		}
		// Deserialize pass: block bytes stream through the CPU into the
		// destination buffer.
		m.ChargePasses(clk, int64(len(d.Payload)), decPasses, m.Config().DeserializeBPS, c.Size())
		return d.Payload, nil
	}
	return r, nil
}
