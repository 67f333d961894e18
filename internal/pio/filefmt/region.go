package filefmt

import (
	"fmt"

	"pmemcpy/internal/mpi"
	"pmemcpy/internal/mpiio"
	"pmemcpy/internal/nd"
	"pmemcpy/internal/node"
	"pmemcpy/internal/pio"
	"pmemcpy/internal/wire"
)

const (
	headerArea  = 64 << 10 // bytes reserved for the header ahead of the first region
	regionAlign = 64
)

// Region describes one library's region file: the header format, and the two
// policies a library may add to the layout.
type Region struct {
	Lib          string // error-string prefix
	Magic        uint64
	NameLenBytes int // width of a variable name's length field in the header

	// Deferred queues every Write — a staged copy of the block and its target
	// ranges — and executes the queue as one combined two-phase collective at
	// Close, instead of one collective per Write.
	Deferred bool
	// AfterDef, when set, runs on every rank once the header is on file and
	// before any data is.
	AfterDef func(c *mpi.Comm, f *mpiio.File, vars []*Var) error
}

// EncodeHeader renders the variable table.
func (r Region) EncodeHeader(vars []*Var) ([]byte, error) {
	buf := wire.AppendUint(nil, r.Magic, 8)
	buf = wire.AppendUint(buf, uint64(len(vars)), 4)
	for _, v := range vars {
		var err error
		if buf, err = appendVar(buf, r.Lib, v.Var, r.NameLenBytes); err != nil {
			return nil, err
		}
		buf = wire.AppendUint(buf, uint64(v.Off), 8)
	}
	return buf, nil
}

// DecodeHeader parses what EncodeHeader wrote (raw may run past its end).
func (r Region) DecodeHeader(raw []byte) (map[string]*Var, error) {
	c := wire.Cursor{Raw: raw}
	magic, nvars := c.Uint(8), c.Uint(4)
	if c.Bad || magic != r.Magic {
		return nil, fmt.Errorf("%s: bad header magic", r.Lib)
	}
	out := make(map[string]*Var)
	for i := uint64(0); i < nvars; i++ {
		v := &Var{Var: readVar(&c, r.NameLenBytes)}
		v.Off = int64(c.Uint(8))
		if c.Bad {
			return nil, fmt.Errorf("%s: header truncated", r.Lib)
		}
		out[v.Name] = v
	}
	return out, nil
}

// Create starts a collective write session on a new region file.
func (r Region) Create(c *mpi.Comm, n *node.Node, path string) (pio.Writer, error) {
	f, err := mpiio.OpenCreate(c, n.FS, path, c.Size())
	if err != nil {
		return nil, err
	}
	return &regionWriter{vars: vars{lib: r.Lib}, layout: r, comm: c, f: f, nextOff: headerArea}, nil
}

type regionWriter struct {
	vars
	layout  Region
	comm    *mpi.Comm
	f       *mpiio.File
	nextOff int64
	defined bool
	closed  bool
	pending []mpiio.Range // the Deferred queue
}

// DefineVar implements pio.Writer: assigns the variable a contiguous region.
func (w *regionWriter) DefineVar(v pio.Var) error {
	if w.defined {
		return fmt.Errorf("%s: DefineVar after end of define mode", w.lib)
	}
	if err := w.define(v, w.nextOff); err != nil {
		return err
	}
	size := int64(nd.Size(v.GlobalDims)) * int64(v.ElemSize())
	w.nextOff += (size + regionAlign - 1) &^ (regionAlign - 1)
	w.comm.Machine().ChargeMetaOp(w.comm.Clock())
	return nil
}

// endDef leaves define mode: rank 0 writes the header through its handle.
func (w *regionWriter) endDef() error {
	if w.defined {
		return nil
	}
	w.defined = true
	if w.comm.Rank() == 0 {
		hdr, err := w.layout.EncodeHeader(w.order)
		if err != nil {
			return err
		}
		if len(hdr) > headerArea {
			return fmt.Errorf("%s: header of %d bytes exceeds %d", w.lib, len(hdr), headerArea)
		}
		if _, err := w.f.WriteAt(hdr, 0); err != nil {
			return err
		}
	}
	if err := w.comm.Barrier(); err != nil {
		return err
	}
	if w.layout.AfterDef != nil {
		return w.layout.AfterDef(w.comm, w.f, w.order)
	}
	return nil
}

// ranges lists the file ranges of block (offs, counts) of v, each paired with
// the bytes of buf — the block's own linearization — that belong there.
func ranges(v *Var, offs, counts []uint64, buf []byte) ([]mpiio.Range, error) {
	var out []mpiio.Range
	err := nd.Runs(v.GlobalDims, offs, counts, v.ElemSize(), func(gOff, bOff, n int64) error {
		out = append(out, mpiio.Range{Off: v.Off + gOff, Data: buf[bOff : bOff+n]})
		return nil
	})
	return out, err
}

// Write implements pio.Writer: linearize the block into the variable's global
// region via two-phase collective I/O — now, or from a staged copy at Close.
func (w *regionWriter) Write(name string, offs, counts []uint64, data []byte) error {
	if w.closed {
		return fmt.Errorf("%s: write after close", w.lib)
	}
	if err := w.endDef(); err != nil {
		return err
	}
	v, data, err := w.block(name, offs, counts, data)
	if err != nil {
		return err
	}
	if w.layout.Deferred {
		// The library owns the request until Close, so it copies the block.
		data = append([]byte(nil), data...)
	}
	// Two full CPU passes over the block beyond the MPI-IO rearrangement
	// itself — under NetCDF-4 the HDF5 hyperslab iteration and datatype
	// conversion, under pNetCDF the iput staging copy and the CDF type
	// processing: the "software overheads [that] are no longer negligible on
	// the I/O path" once the device is PMEM-fast.
	m := w.comm.Machine()
	m.ChargePasses(w.comm.Clock(), int64(len(data)), 2, m.Config().PackBPS, w.comm.Size())
	m.ChargeMetaOp(w.comm.Clock())
	rs, err := ranges(v, offs, counts, data)
	if err != nil {
		return err
	}
	if w.layout.Deferred {
		w.pending = append(w.pending, rs...)
		return nil
	}
	return w.f.WriteRangesAll(rs)
}

// Close implements pio.Writer.
func (w *regionWriter) Close() error {
	if w.closed {
		return fmt.Errorf("%s: double close", w.lib)
	}
	if err := w.endDef(); err != nil {
		return err
	}
	w.closed = true
	if w.layout.Deferred {
		if err := w.f.WriteRangesAll(w.pending); err != nil {
			return err
		}
		w.pending = nil
	}
	if err := w.f.Sync(); err != nil {
		return err
	}
	if err := w.comm.Barrier(); err != nil {
		return err
	}
	return w.f.Close()
}

// Open starts a collective read session: rank 0 reads the header area and
// broadcasts it.
func (r Region) Open(c *mpi.Comm, n *node.Node, path string) (pio.Reader, error) {
	f, err := mpiio.OpenRead(c, n.FS, path, c.Size())
	if err != nil {
		return nil, err
	}
	var raw []byte
	if c.Rank() == 0 {
		raw = make([]byte, headerArea)
		if _, err := f.ReadAt(raw, 0); err != nil {
			return nil, err
		}
	}
	if raw, err = c.Bcast(0, raw); err != nil {
		return nil, err
	}
	byName, err := r.DecodeHeader(raw)
	if err != nil {
		return nil, err
	}
	return &regionReader{vars: vars{lib: r.Lib, byName: byName}, comm: c, f: f}, nil
}

type regionReader struct {
	vars
	comm *mpi.Comm
	f    *mpiio.File
}

// Read implements pio.Reader: gather the block's runs from the contiguous
// region via two-phase collective I/O.
func (r *regionReader) Read(name string, offs, counts []uint64, dst []byte) error {
	v, dst, err := r.block(name, offs, counts, dst)
	if err != nil {
		return err
	}
	rs, err := ranges(v, offs, counts, dst)
	if err != nil {
		return err
	}
	// Hyperslab iteration and type conversion on the inbound path.
	m := r.comm.Machine()
	m.ChargePasses(r.comm.Clock(), int64(len(dst)), 1, m.Config().PackBPS, r.comm.Size())
	return r.f.ReadRangesAll(rs)
}

// Close implements pio.Reader.
func (r *regionReader) Close() error {
	if err := r.comm.Barrier(); err != nil {
		return err
	}
	return r.f.Close()
}
