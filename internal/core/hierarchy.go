package core

import (
	"encoding/binary"
	"fmt"
	"path"

	"pmemcpy/internal/nd"
	"pmemcpy/internal/node"
	"pmemcpy/internal/pmdk"
	"pmemcpy/internal/posixfs"
	"pmemcpy/internal/serial"
	"pmemcpy/internal/sim"
)

// hierStore implements the alternative hierarchical layout of Section 3:
// "instead of writing to a single file, pMEMCPY stores the data structures
// in a directory and creates a file for each variable. Whenever a '/' is
// used in the id of the variable, a directory is created if it didn't
// already exist."
//
// Variables map to files under the store's root directory; every stored
// block is appended to its variable's file as a framed record. Data moves
// through the filesystem's kernel path, which is what the layout ablation
// (E5) compares against the mapped hashtable layout.
type hierStore struct {
	node *node.Node
	root string
}

// filePath maps an id to its file path, creating parent directories.
func (h *hierStore) filePath(clk *sim.Clock, id string, mkdirs bool) (string, error) {
	if id == "" {
		return "", fmt.Errorf("core: empty id")
	}
	full := path.Join(h.root, id)
	if mkdirs {
		if dir := path.Dir(full); dir != "." {
			if err := h.node.FS.MkdirAll(clk, dir); err != nil {
				return "", err
			}
		}
	}
	return full, nil
}

// putValue writes a whole small metadata file.
func (h *hierStore) putValue(clk *sim.Clock, id string, value []byte) error {
	p, err := h.filePath(clk, id, true)
	if err != nil {
		return err
	}
	f, err := h.node.FS.Create(clk, p)
	if err != nil {
		return err
	}
	defer f.Close()
	if _, err := f.WriteAt(clk, value, 0); err != nil {
		return err
	}
	return f.Sync(clk)
}

// getValue reads a whole small metadata file.
func (h *hierStore) getValue(clk *sim.Clock, id string) ([]byte, bool, error) {
	p, err := h.filePath(clk, id, false)
	if err != nil {
		return nil, false, err
	}
	f, err := h.node.FS.Open(clk, p)
	if err != nil {
		return nil, false, nil // absent
	}
	defer f.Close()
	buf := make([]byte, f.Size())
	if _, err := f.ReadAt(clk, buf, 0); err != nil {
		return nil, false, err
	}
	return buf, true, nil
}

func (h *hierStore) delete(clk *sim.Clock, id string) (bool, error) {
	p, err := h.filePath(clk, id, false)
	if err != nil {
		return false, err
	}
	if _, err := h.node.FS.Stat(clk, p); err != nil {
		return false, nil
	}
	return true, h.node.FS.Remove(clk, p)
}

func (h *hierStore) keys(clk *sim.Clock) ([]string, error) {
	var out []string
	var walk func(dir, rel string) error
	walk = func(dir, rel string) error {
		ents, err := h.node.FS.ReadDir(clk, dir)
		if err != nil {
			return err
		}
		for _, e := range ents {
			childRel := e.Name
			if rel != "" {
				childRel = rel + "/" + e.Name
			}
			if e.IsDir {
				if err := walk(path.Join(dir, e.Name), childRel); err != nil {
					return err
				}
				continue
			}
			out = append(out, childRel)
		}
		return nil
	}
	if err := walk(h.root, ""); err != nil {
		return nil, err
	}
	return out, nil
}

// storeDatum writes one whole value as a single-record file: a staged plan
// whose frame is the 1-byte type prefix, executed by the commit engine.
func (h *hierStore) storeDatum(p *PMEM, id string, d *serial.Datum) error {
	return p.engine().runStaged(h, &stagedPlan{
		id:     id,
		header: []byte{byte(d.Type)},
		datum:  d,
	})
}

// Block record framing in a variable file:
//
//	u8 dtype | u8 ndims | offs u64[nd] | counts u64[nd] | u64 encLen | payload
func blockRecordHeaderSize(ndims int) int64 { return 2 + 16*int64(ndims) + 8 }

// storeBlock appends one block record to the variable's file: a staged plan
// whose frame is the record header (with the encoded-length hole stamped by
// the engine after the fill), executed by the commit engine.
func (h *hierStore) storeBlock(p *PMEM, id string, offs []uint64, d *serial.Datum) error {
	hdr := make([]byte, blockRecordHeaderSize(len(d.Dims)))
	hdr[0] = byte(d.Type)
	hdr[1] = byte(len(d.Dims))
	pos := 2
	for _, o := range offs {
		binary.LittleEndian.PutUint64(hdr[pos:], o)
		pos += 8
	}
	for _, c := range d.Dims {
		binary.LittleEndian.PutUint64(hdr[pos:], c)
		pos += 8
	}
	return p.engine().runStaged(h, &stagedPlan{
		id:        id,
		header:    hdr,
		stampLen:  true,
		datum:     d,
		appendRec: true,
	})
}

// open opens id's file for the read engine, which closes it.
func (h *hierStore) open(clk *sim.Clock, id string) (*posixfs.File, error) {
	fp, err := h.filePath(clk, id, false)
	if err != nil {
		return nil, err
	}
	f, err := h.node.FS.Open(clk, fp)
	if err != nil {
		return nil, fmt.Errorf("core: id %q has no stored file: %w", id, ErrNotFound)
	}
	return f, nil
}

// scanRecords walks the record headers of a variable's file and returns every
// record intersecting the request as a read unit, in append (= publish)
// order; src.data is the payload's offset in f. The read engine (readplan.go)
// checks coverage, then reads, decodes and scatters the units one at a time,
// exactly as it does mapped blocks.
func scanRecords(clk *sim.Clock, f *posixfs.File, offs, counts []uint64, esize int) ([]readUnit, error) {
	var units []readUnit
	size := f.Size()
	pos := int64(0)
	for pos < size {
		var hdr [2]byte
		if _, err := f.ReadAt(clk, hdr[:], pos); err != nil {
			return nil, err
		}
		ndims := int(hdr[1])
		hdrLen := blockRecordHeaderSize(ndims)
		rest := make([]byte, hdrLen-2)
		if _, err := f.ReadAt(clk, rest, pos+2); err != nil {
			return nil, err
		}
		b := blockRec{dtype: serial.DType(hdr[0]), offs: make([]uint64, ndims), counts: make([]uint64, ndims)}
		rp := 0
		for i := range b.offs {
			b.offs[i] = binary.LittleEndian.Uint64(rest[rp:])
			rp += 8
		}
		for i := range b.counts {
			b.counts[i] = binary.LittleEndian.Uint64(rest[rp:])
			rp += 8
		}
		b.encLen = int64(binary.LittleEndian.Uint64(rest[rp:]))
		b.data = pmdk.PMID(pos + hdrLen)
		pos += hdrLen + b.encLen

		if isOffs, isCnts, ok := nd.Intersect(offs, counts, b.offs, b.counts); ok {
			units = append(units, readUnit{src: b, isOffs: isOffs, isCnts: isCnts,
				bytes: int64(nd.Size(isCnts)) * int64(esize)})
		}
	}
	return units, nil
}
