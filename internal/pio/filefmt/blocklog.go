package filefmt

import (
	"fmt"

	"pmemcpy/internal/mpi"
	"pmemcpy/internal/nd"
	"pmemcpy/internal/node"
	"pmemcpy/internal/pio"
	"pmemcpy/internal/posixfs"
	"pmemcpy/internal/wire"
)

const (
	LogHeader = 64 // bytes ahead of the first block: magic, total data bytes
	logFooter = 24 // index offset, index length, magic
)

// Log describes one library's block-log file.
type Log struct {
	Lib   string // error-string prefix
	Magic uint64
	// Filtered marks a format whose blocks may be stored transformed: every
	// block then also records its raw length and whether the transform was
	// kept, and the index opens with the name of the transform pipeline.
	Filtered bool
}

// Block locates one written block in the file.
type Block struct {
	Name         string
	Offs, Counts []uint64
	FileOff      uint64
	StoredLen    uint64
	RawLen       uint64 // Filtered formats only
	Filtered     bool   // Filtered formats only: StoredLen bytes decode to RawLen
}

// Header renders the file header; total is the data bytes between it and the
// index, for a library that knows them when it writes the header.
func (l Log) Header(total uint64) []byte {
	hdr := wire.AppendUint(make([]byte, 0, LogHeader), l.Magic, 8)
	return wire.AppendUint(hdr, total, 8)[:LogHeader]
}

// EncodeTable renders a block table: a rank's own blocks on their way to rank
// 0, or one variable's blocks inside the index.
func (l Log) EncodeTable(blocks []Block) []byte {
	buf := wire.AppendUint(nil, uint64(len(blocks)), 4)
	for _, b := range blocks {
		buf = wire.AppendUint(buf, uint64(len(b.Name)), 2)
		buf = append(buf, b.Name...)
		buf = append(buf, byte(len(b.Offs)))
		for _, o := range b.Offs {
			buf = wire.AppendUint(buf, o, 8)
		}
		for _, n := range b.Counts {
			buf = wire.AppendUint(buf, n, 8)
		}
		buf = wire.AppendUint(buf, b.FileOff, 8)
		buf = wire.AppendUint(buf, b.StoredLen, 8)
		if l.Filtered {
			buf = wire.AppendUint(buf, b.RawLen, 8)
			buf = wire.AppendUint(buf, btou(b.Filtered), 1)
		}
	}
	return buf
}

func btou(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// decodeTable reads one block table off the cursor.
func (l Log) decodeTable(c *wire.Cursor) []Block {
	var out []Block
	for n := c.Uint(4); n > 0 && !c.Bad; n-- {
		b := Block{Name: string(c.Take(c.Uint(2)))}
		ndims := int(c.Uint(1))
		b.Offs, b.Counts = c.Dims(ndims), c.Dims(ndims)
		b.FileOff, b.StoredLen = c.Uint(8), c.Uint(8)
		if l.Filtered {
			b.RawLen, b.Filtered = c.Uint(8), c.Uint(1) != 0
		}
		out = append(out, b)
	}
	return out
}

// DecodeTable parses a whole EncodeTable rendering.
func (l Log) DecodeTable(raw []byte) ([]Block, error) {
	c := wire.Cursor{Raw: raw}
	out := l.decodeTable(&c)
	if c.Bad {
		return nil, fmt.Errorf("%s: block table truncated", l.Lib)
	}
	return out, nil
}

// EncodeIndex renders the global index: every variable's description followed
// by the table of its blocks, in the order given. filter names the transform
// pipeline of a Filtered format.
func (l Log) EncodeIndex(vars []*Var, filter string, blocks []Block) ([]byte, error) {
	var buf []byte
	if l.Filtered {
		buf = wire.AppendUint(buf, uint64(len(filter)), 2)
		buf = append(buf, filter...)
	}
	buf = wire.AppendUint(buf, uint64(len(vars)), 4)
	byVar := make(map[string][]Block)
	for _, b := range blocks {
		byVar[b.Name] = append(byVar[b.Name], b)
	}
	for _, v := range vars {
		var err error
		if buf, err = appendVar(buf, l.Lib, v.Var, 2); err != nil {
			return nil, err
		}
		buf = append(buf, l.EncodeTable(byVar[v.Name])...)
		delete(byVar, v.Name)
	}
	if len(byVar) > 0 {
		return nil, fmt.Errorf("%s: blocks reference %d undefined variables", l.Lib, len(byVar))
	}
	return buf, nil
}

// DecodeIndex parses what EncodeIndex wrote.
func (l Log) DecodeIndex(raw []byte) (vars map[string]*Var, filter string, blocks map[string][]Block, err error) {
	c := wire.Cursor{Raw: raw}
	if l.Filtered {
		filter = string(c.Take(c.Uint(2)))
	}
	vars, blocks = make(map[string]*Var), make(map[string][]Block)
	for n := c.Uint(4); n > 0 && !c.Bad; n-- {
		v := &Var{Var: readVar(&c, 2)}
		vars[v.Name], blocks[v.Name] = v, l.decodeTable(&c)
	}
	if c.Bad {
		return nil, "", nil, fmt.Errorf("%s: index truncated", l.Lib)
	}
	return vars, filter, blocks, nil
}

// LogWriter is the write session a block-log library builds its Write on:
// Begin validates a block, the library transforms and places it — in file
// space from Alloc or in a staging buffer of its own — and Records where;
// Close gathers every rank's records into the index.
type LogWriter struct {
	vars
	layout Log
	Comm   *mpi.Comm
	Filter string        // the index's transform-pipeline name
	File   *posixfs.File // the handle the index and footer go through
	Blocks []Block       // this rank's records, in write order
	Cursor int64         // end of the allocated file space, identical on all ranks
	closed bool
}

// Create starts a collective write session on a new file: rank 0 creates it,
// holding header if the library writes one up front, and every rank waits.
func (l Log) Create(c *mpi.Comm, n *node.Node, path string, header []byte) (*LogWriter, error) {
	if c.Rank() == 0 {
		f, err := n.FS.Create(c.Clock(), path)
		if err != nil {
			return nil, err
		}
		if len(header) > 0 {
			if _, err := f.WriteAt(c.Clock(), header, 0); err != nil {
				return nil, err
			}
		}
		if err := f.Close(); err != nil {
			return nil, err
		}
	}
	if err := c.Barrier(); err != nil {
		return nil, err
	}
	return &LogWriter{vars: vars{lib: l.Lib}, layout: l, Comm: c, Cursor: LogHeader}, nil
}

// DefineVar implements pio.Writer.
func (w *LogWriter) DefineVar(v pio.Var) error { return w.define(v, 0) }

// Begin is the prologue of a library's Write: it returns the variable and
// data cut to exactly the block's bytes.
func (w *LogWriter) Begin(name string, offs, counts []uint64, data []byte) (*Var, []byte, error) {
	if w.closed {
		return nil, nil, fmt.Errorf("%s: write after close", w.lib)
	}
	return w.block(name, offs, counts, data)
}

// Alloc collectively allocates file space past the cursor — an exclusive scan
// of every rank's n — and returns the offset of this rank's n bytes.
func (w *LogWriter) Alloc(n uint64) (int64, error) {
	base, err := w.Comm.ExscanU64(n)
	if err != nil {
		return 0, err
	}
	total, err := w.Comm.AllreduceU64(n, mpi.OpSum)
	if err != nil {
		return 0, err
	}
	off := w.Cursor + int64(base)
	w.Cursor += int64(total)
	return off, nil
}

// Record appends a written block to this rank's table.
func (w *LogWriter) Record(b Block) {
	b.Offs = append([]uint64(nil), b.Offs...)
	b.Counts = append([]uint64(nil), b.Counts...)
	w.Blocks = append(w.Blocks, b)
}

// Closing marks the session closed; closing twice is an error.
func (w *LogWriter) Closing() error {
	if w.closed {
		return fmt.Errorf("%s: double close", w.lib)
	}
	w.closed = true
	return nil
}

// Finish completes a Close once every block is on file: rank 0 gathers the
// per-rank tables and appends the global index and the footer at the cursor.
func (w *LogWriter) Finish() error {
	clk := w.Comm.Clock()
	tables, err := w.Comm.Gather(0, w.layout.EncodeTable(w.Blocks))
	if err != nil {
		return err
	}
	if w.Comm.Rank() == 0 {
		var all []Block
		for _, t := range tables {
			blocks, err := w.layout.DecodeTable(t)
			if err != nil {
				return err
			}
			all = append(all, blocks...)
		}
		index, err := w.layout.EncodeIndex(w.order, w.Filter, all)
		if err != nil {
			return err
		}
		foot := wire.AppendUint(nil, uint64(w.Cursor), 8)
		foot = wire.AppendUint(foot, uint64(len(index)), 8)
		foot = wire.AppendUint(foot, w.layout.Magic, 8)
		if _, err := w.File.WriteAt(clk, index, w.Cursor); err != nil {
			return err
		}
		if _, err := w.File.WriteAt(clk, foot, w.Cursor+int64(len(index))); err != nil {
			return err
		}
		if err := w.File.Sync(clk); err != nil {
			return err
		}
	}
	if err := w.Comm.Barrier(); err != nil {
		return err
	}
	return w.File.Close()
}

// Close implements pio.Writer for a library with nothing left to flush.
func (w *LogWriter) Close() error {
	if err := w.Closing(); err != nil {
		return err
	}
	return w.Finish()
}

// LogReader is the read session of a block-log file; the library that opened
// it supplies the handle blocks are fetched through and the two costs that
// are its own.
type LogReader struct {
	vars
	comm   *mpi.Comm
	blocks map[string][]Block
	File   *posixfs.File
	// RequestPasses is the CPU passes over the requested bytes the library
	// spends on every Read before it touches a block.
	RequestPasses float64
	// Decode undoes the write-side transform of one block's stored bytes,
	// charging what that costs.
	Decode func(v *Var, b Block, stored []byte) ([]byte, error)
}

// ReadIndex is the open protocol: rank 0 follows the footer to the index
// through f (which only rank 0 needs) and broadcasts it. It returns the
// reader and the index's transform-pipeline name.
func (l Log) ReadIndex(c *mpi.Comm, f *posixfs.File) (*LogReader, string, error) {
	var raw []byte
	if c.Rank() == 0 {
		clk, size := c.Clock(), f.Size()
		if size < logFooter {
			return nil, "", fmt.Errorf("%s: file too small (%d bytes)", l.Lib, size)
		}
		foot := make([]byte, logFooter)
		if _, err := f.ReadAt(clk, foot, size-logFooter); err != nil {
			return nil, "", err
		}
		fc := wire.Cursor{Raw: foot}
		off, n, magic := fc.Uint(8), fc.Uint(8), fc.Uint(8)
		if magic != l.Magic || off+n != uint64(size-logFooter) {
			return nil, "", fmt.Errorf("%s: bad footer", l.Lib)
		}
		raw = make([]byte, n)
		if _, err := f.ReadAt(clk, raw, int64(off)); err != nil {
			return nil, "", err
		}
	}
	raw, err := c.Bcast(0, raw)
	if err != nil {
		return nil, "", err
	}
	byName, filter, blocks, err := l.DecodeIndex(raw)
	if err != nil {
		return nil, "", err
	}
	return &LogReader{vars: vars{lib: l.Lib, byName: byName}, comm: c, blocks: blocks}, filter, nil
}

// Read implements pio.Reader: locate the blocks intersecting the request,
// fetch each whole from storage into DRAM (kernel read), undo its transform,
// and place the intersection into dst. No rearrangement communication.
func (r *LogReader) Read(name string, offs, counts []uint64, dst []byte) error {
	v, dst, err := r.block(name, offs, counts, dst)
	if err != nil {
		return err
	}
	clk, m := r.comm.Clock(), r.comm.Machine()
	m.ChargePasses(clk, int64(len(dst)), r.RequestPasses, m.Config().PackBPS, r.comm.Size())
	covered := 0
	for _, b := range r.blocks[name] {
		isOffs, isCnts, ok := nd.Intersect(offs, counts, b.Offs, b.Counts)
		if !ok {
			continue
		}
		stored := make([]byte, b.StoredLen)
		if _, err := r.File.ReadAt(clk, stored, int64(b.FileOff)); err != nil {
			return err
		}
		payload, err := r.Decode(v, b, stored)
		if err != nil {
			return err
		}
		if err := nd.PlaceIntersection(dst, offs, counts, payload, b.Offs, b.Counts,
			isOffs, isCnts, v.ElemSize()); err != nil {
			return err
		}
		covered += int(nd.Size(isCnts)) * v.ElemSize()
	}
	if covered < len(dst) {
		return fmt.Errorf("%s: request on %q only covered %d of %d bytes (region never written?)",
			r.lib, name, covered, len(dst))
	}
	return nil
}

// Close implements pio.Reader.
func (r *LogReader) Close() error {
	if err := r.comm.Barrier(); err != nil {
		return err
	}
	return r.File.Close()
}
