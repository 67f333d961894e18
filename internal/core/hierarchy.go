package core

import (
	"fmt"
	"path"

	"pmemcpy/internal/nd"
	"pmemcpy/internal/node"
	"pmemcpy/internal/pmdk"
	"pmemcpy/internal/posixfs"
	"pmemcpy/internal/sim"
)

// hierStore implements the alternative hierarchical layout of Section 3:
// "instead of writing to a single file, pMEMCPY stores the data structures
// in a directory and creates a file for each variable. Whenever a '/' is
// used in the id of the variable, a directory is created if it didn't
// already exist."
//
// Variables map to files under the store's root directory; every stored
// block is appended to its variable's file as a framed record (decodeFrame,
// meta.go), and a whole value is its file: a dtype byte and the payload. Data
// moves through the filesystem's kernel path, which is what the layout
// ablation (E5) compares against the mapped hashtable layout. The filesystem
// replaces the allocator, the metadata table and the mapping, so the layout
// has none of the pool layout's capabilities: no published CRCs, nothing to
// alias, no transactions.
type hierStore struct {
	node *node.Node
	root string
}

func (h *hierStore) pooled() bool { return false }

// varFile is a variable's open file: what a resolved read plan's units point
// into until the read engine closes it.
type varFile posixfs.File

func (f *varFile) close() {
	if f != nil {
		(*posixfs.File)(f).Close()
	}
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

// put writes a whole small file.
func (h *hierStore) put(p *PMEM, id, suffix string, value []byte) error {
	return h.writeFile(p.comm.Clock(), id+suffix, value, false)
}

// writeFile replaces id's file with rec, or appends rec to it, and syncs.
func (h *hierStore) writeFile(clk *sim.Clock, id string, rec []byte, appendRec bool) error {
	p, err := h.filePath(clk, id, true)
	if err != nil {
		return err
	}
	var f *posixfs.File
	if appendRec {
		f, _ = h.node.FS.Open(clk, p)
	}
	if f == nil {
		if f, err = h.node.FS.Create(clk, p); err != nil {
			return err
		}
	}
	defer f.Close()
	if _, err := f.WriteAt(clk, rec, f.Size()); err != nil {
		return err
	}
	return f.Sync(clk)
}

// get reads a whole small file.
func (h *hierStore) get(clk *sim.Clock, id, suffix string) ([]byte, bool, error) {
	p, err := h.filePath(clk, id+suffix, false)
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

func (h *hierStore) del(p *PMEM, id string) (bool, error) {
	clk := p.comm.Clock()
	fp, err := h.filePath(clk, id, false)
	if err != nil {
		return false, err
	}
	if _, err := h.node.FS.Stat(clk, fp); err != nil {
		return false, nil
	}
	return true, h.node.FS.Remove(clk, fp)
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

// commit writes each unit of the plan as one record: a whole value replaces
// its file with dtype byte | payload, a block appends frame | payload to its
// variable's. The layout writes through the kernel path, so it cannot encode
// straight into a device mapping: the record is serialized into a DRAM buffer,
// charged as staged, then written and synced under the variable's lock.
func (h *hierStore) commit(p *PMEM, plan writePlan) error {
	clk := p.comm.Clock()
	for g, u := range plan.units {
		d := u.frags[0].datum // no pool: never chunked, sharded or coalesced
		framed := g.publish == publishBlockList
		hdrLen := 1
		if framed {
			hdrLen = frameFields.size(len(u.offs))
		}
		enc := make([]byte, hdrLen+p.codec.EncodedSize(d))
		wrote, err := p.codec.EncodeTo(enc[hdrLen:], d)
		if err != nil {
			return err
		}
		enc = enc[:hdrLen+wrote]
		if framed {
			frameFields.append(enc[:0], &blockRec{dtype: g.dtype, offs: u.offs, counts: u.counts, encLen: int64(wrote)})
		} else {
			enc[0] = byte(g.dtype)
		}
		p.chargeCodec(sim.Store, int64(len(enc)), plan.encPasses)
		v := p.variable(g.id)
		v.Lock()
		err = h.writeFile(clk, g.id, enc, framed)
		v.Unlock()
		if err != nil {
			return err
		}
		u.wrote = int64(len(enc))
	}
	return nil
}

// open opens id's file for a read plan; the read engine closes it.
func (h *hierStore) open(clk *sim.Clock, id string) (*varFile, error) {
	fp, err := h.filePath(clk, id, false)
	if err != nil {
		return nil, err
	}
	f, err := h.node.FS.Open(clk, fp)
	if err != nil {
		return nil, fmt.Errorf("core: id %q has no stored file: %w", id, ErrNotFound)
	}
	return (*varFile)(f), nil
}

// resolve scans a request or statistics plan's units out of the variable's
// file. A value is its file, not a reference to a block: a whole-value load
// reads the file as one record, and a CRC plan finds nothing to sweep.
func (h *hierStore) resolve(p *PMEM, pl readPlan) (r resolution, err error) {
	clk := p.comm.Clock()
	switch pl.consume {
	case consumeCRC:
		_, ok, err := h.get(clk, pl.id, "")
		if err == nil && !ok {
			err = fmt.Errorf("core: id %q: %w", pl.id, ErrNotFound)
		}
		r.done = true
		return r, err
	case consumeClone:
		if r.file, err = h.open(clk, pl.id); err == nil {
			n := (*posixfs.File)(r.file).Size()
			r.one[0], r.single = readUnit{src: blockRec{encLen: n}, bytes: n, file: r.file}, true
		}
		return r, err
	}
	rec, err := p.heldDims(pl.v, pl.id, nil)
	if err != nil {
		return r, err
	}
	if pl.consume != consumeStats {
		if err := r.bound(&pl, rec); err != nil {
			return r, err
		}
	}
	if r.file, err = h.open(clk, pl.id); err == nil {
		r.units, err = h.scan(clk, r.file, &pl, r.esize)
	}
	return r, err
}

// scan walks the frames of a variable's file and returns every block
// intersecting the request — every block, for a statistics plan — as a read
// unit, in append (= publish) order;
// src.data is the payload's offset in f. Each frame costs two reads: its first
// two bytes size the rest of its header.
func (h *hierStore) scan(clk *sim.Clock, vf *varFile, pl *readPlan, esize int) ([]readUnit, error) {
	var units []readUnit
	f := (*posixfs.File)(vf)
	size := f.Size()
	for pos := int64(0); pos < size; {
		var head [2]byte
		n, err := f.ReadAt(clk, head[:], pos)
		if err != nil {
			return nil, err
		}
		hdr := make([]byte, frameLen(head[:]))
		copy(hdr, head[:n])
		m, err := f.ReadAt(clk, hdr[2:], pos+2)
		if err != nil {
			return nil, err
		}
		pos += int64(len(hdr))
		b, err := decodeFrame(hdr[:n+m], size-pos)
		if err != nil {
			return nil, fmt.Errorf("core: id %q: %w", pl.id, err)
		}
		b.data = pmdk.PMID(pos)
		pos += b.encLen
		if pl.consume == consumeStats {
			units = append(units, readUnit{src: b, bytes: b.encLen, file: vf})
		} else if isOffs, isCnts, ok := nd.Intersect(pl.offs, pl.counts, b.offs, b.counts); ok {
			units = append(units, readUnit{src: b, isOffs: isOffs, isCnts: isCnts,
				bytes: int64(nd.Size(isCnts)) * int64(esize), file: vf})
		}
	}
	return units, nil
}

// stored reads a unit's record from the variable's file into DRAM through the
// FS model. The read engine calls it once per unit, as the unit is consumed,
// so a gather holds one record at a time.
func (h *hierStore) stored(p *PMEM, u readUnit) ([]byte, error) {
	buf := make([]byte, u.src.encLen)
	_, err := (*posixfs.File)(u.file).ReadAt(p.comm.Clock(), buf, int64(u.src.data))
	return buf, err
}

// chargeUnit accounts the staged decode of one record; the FS model already
// charged for its bytes.
func (h *hierStore) chargeUnit(p *PMEM, u readUnit, decPasses float64) {
	p.chargeCodec(sim.Load, u.src.encLen, decPasses)
}
