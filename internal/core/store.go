package core

import (
	"encoding/binary"
	"fmt"
	"sort"

	"pmemcpy/internal/nd"
	"pmemcpy/internal/pmdk"
	"pmemcpy/internal/serial"
)

// putValue stores small metadata bytes under id in the active layout. On a
// sharded namespace the entry lands in the id's home pool's hashtable.
func (p *PMEM) putValue(id string, value []byte) error {
	clk := p.comm.Clock()
	if p.st.opt.Layout == LayoutHierarchy {
		return p.st.hier.putValue(clk, id, value)
	}
	return p.homeHT(id).Put(clk, []byte(id), value)
}

// getValue loads small metadata bytes stored under id.
func (p *PMEM) getValue(id string) ([]byte, bool, error) {
	clk := p.comm.Clock()
	if p.st.opt.Layout == LayoutHierarchy {
		return p.st.hier.getValue(clk, id)
	}
	return p.homeHT(id).Get(clk, []byte(id))
}

// Delete removes id (and not its "#dims" companion; delete that separately
// if desired). It reports whether the id existed.
func (p *PMEM) Delete(id string) (bool, error) {
	p.asyncBarrier()
	done := p.beginOp(opDelete, id)
	existed, err := p.deleteValue(id)
	done(false, 0, err)
	return existed, err
}

func (p *PMEM) deleteValue(id string) (bool, error) {
	clk := p.comm.Clock()
	lock := p.varLock(id)
	lock.Lock()
	defer lock.Unlock()
	defer p.invalidateCache(id)
	if p.st.opt.Layout == LayoutHierarchy {
		return p.st.hier.delete(clk, id)
	}
	// Free whatever data the entry owns — a block list's blocks, a value
	// ref's block, or nothing for raw metadata records (e.g. "#dims") —
	// then remove the metadata entry itself.
	raw, ok, err := p.getValue(id)
	if err != nil {
		return false, err
	}
	if !ok {
		return false, nil
	}
	var one [1]blockRec
	blocks, _, err := p.ownedBlocks(id, raw, one[:0])
	if err != nil {
		return false, err
	}
	owned := make([]poolPMID, len(blocks))
	for i, b := range blocks {
		owned[i] = poolPMID{pool: b.pool, id: b.data}
	}
	// Unlink the metadata entry first, then free the storage it owned: a
	// crash between the two leaks blocks (recoverable garbage), while the
	// reverse order would leave the entry dangling at freed storage.
	existed, err := p.homeHT(id).Delete(clk, []byte(id))
	if err != nil || !existed {
		return existed, err
	}
	if len(owned) > 0 {
		// Striped blocks free in their owning pools — or, with zero-copy view
		// leases open, park on the limbo lists until the lease epoch drains
		// (view.go). Either way the persist sequence stays deterministic for
		// the crash explorer: frees run one transaction per touched pool in
		// ascending pool order, and with no leases open the path is
		// bit-identical to the pre-view behaviour.
		if err := p.deferOrFreeBlocks(owned); err != nil {
			return false, err
		}
	}
	return true, nil
}

// Keys lists every stored id (including "#dims" companions) in sorted order,
// so tooling output (pmemcli, pmemfsck) and tests are deterministic across
// hashtable bucket layouts.
func (p *PMEM) Keys() ([]string, error) {
	p.asyncBarrier()
	clk := p.comm.Clock()
	var out []string
	var err error
	if p.st.opt.Layout == LayoutHierarchy {
		out, err = p.st.hier.keys(clk)
	} else {
		// Every member pool's hashtable contributes its shard of the
		// namespace; ids are unique across shards (each lives only in its
		// home pool), so a plain merge needs no dedup.
		for pi := 0; pi < len(p.st.pools) && err == nil; pi++ {
			err = p.st.hts[pi].Range(clk, func(key []byte, _ pmdk.PMID, _ int64) bool {
				out = append(out, string(key))
				return true
			})
		}
	}
	if err != nil {
		return nil, err
	}
	sort.Strings(out)
	return out, nil
}

// --- scalar / whole-value store ---

// StoreDatum stores a complete datum (scalar, string, or whole array) under
// id. The value is serialized with the handle's codec directly into PMEM.
func (p *PMEM) StoreDatum(id string, d *serial.Datum) error {
	p.asyncBarrier()
	done := p.beginOp(opStoreDatum, id)
	bytes, parallel, err := p.storeDatum(id, d)
	done(parallel, bytes, err)
	return err
}

func (p *PMEM) storeDatum(id string, d *serial.Datum) (int64, bool, error) {
	if err := d.Validate(); err != nil {
		return 0, false, err
	}
	return p.commitDatum(id, d)
}

// commitDatum stores a validated datum — the step StoreDatum and the async
// pipeline share, so an argument error never enters a commit. It reports the
// bytes written and whether the fill ran on the worker pool.
func (p *PMEM) commitDatum(id string, d *serial.Datum) (int64, bool, error) {
	encPasses, _ := p.codec.CostProfile()
	need := int64(p.codec.EncodedSize(d)) + 1
	if p.st.opt.Layout == LayoutHierarchy {
		return need, false, p.st.hier.storeDatum(p, id, d)
	}
	// Plan: serialize directly into one PMEM block (framed by the 1-byte type
	// tag of a value ref's block), then publish it as the KV value via a small
	// pointer record. Whole values live in the id's home pool — the same pool
	// as the pointer record — so a value ref needs no pool field. The commit
	// engine runs the alloc/fill/persist/publish sequence.
	u := writeUnit{
		pool:   uint8(p.homeIdx(id)),
		frags:  []writeFrag{{datum: d, encLen: need - 1}},
		encLen: need,
		point:  ptDatumPayload,
	}
	// A large value under an identity-encoding codec (raw) is a plain payload
	// copy, so disjoint byte ranges of it can be written concurrently: the one
	// fragment becomes one per worker and the fill one concurrent wave.
	if ie, ok := p.codec.(serial.IdentityEncoder); ok && ie.IdentityEncode() &&
		p.st.opt.Parallelism > 1 && !p.st.opt.StagedSerialization && need >= parallelMinBytes {
		u.frags, u.point = chunkFrags(d.Payload, p.st.opt.Parallelism), ptDatumChunk
	}
	workers := len(u.frags)
	plan := &writePlan{
		workers:   workers,
		encPasses: encPasses,
		groups:    []*planGroup{{id: id, dtype: d.Type, publish: publishValueRef, units: []writeUnit{u}}},
	}
	if err := p.engine().run(plan); err != nil {
		return 0, false, err
	}
	if workers > 1 {
		p.st.parallelStores.Add(1)
		p.st.parallelBlocks.Add(int64(workers))
	}
	return plan.groups[0].units[0].wrote, workers > 1, nil
}

// LoadDatum loads a datum stored with StoreDatum, deserializing directly
// from PMEM. The returned payload is a private copy.
func (p *PMEM) LoadDatum(id string) (*serial.Datum, error) {
	p.asyncBarrier()
	done := p.beginOp(opLoadDatum, id)
	d, bytes, err := p.loadDatum(id)
	done(false, bytes, err)
	return d, err
}

func (p *PMEM) loadDatum(id string) (*serial.Datum, int64, error) {
	pl := readPlan{id: id, consume: consumeClone}
	if err := p.reader().run(&pl); err != nil {
		return nil, 0, err
	}
	return pl.datum, pl.covered, nil
}

// valueRefTag distinguishes single-value pointer records from block lists;
// blockListTag marks the block lists themselves; quarantineTag marks the
// store-wide quarantine list (integrity.go). Raw metadata records (dims)
// carry none of them.
//
// The pooled variants carry a pool index with every block reference — written
// only when a record references a pool other than 0, so single-pool stores
// keep producing byte-identical legacy records. Decoders accept both forms.
// Value refs never need a pool: a whole value always lives in its id's home
// pool.
const (
	valueRefTag         = 0xA7
	blockListTag        = 0xB1
	blockListPooledTag  = 0xB2
	quarantineTag       = 0xC3
	quarantinePooledTag = 0xC4
)

// isBlockListTag reports whether t marks either block-list form.
func isBlockListTag(t byte) bool { return t == blockListTag || t == blockListPooledTag }

// valueRefLen is the exact encoded size of a value ref:
// tag + PMID + length + CRC32C.
const valueRefLen = 1 + 8 + 8 + 4

func encodeValueRef(blk pmdk.PMID, n int64, crc uint32) []byte {
	rec := make([]byte, valueRefLen)
	rec[0] = valueRefTag
	binary.LittleEndian.PutUint64(rec[1:], uint64(blk))
	binary.LittleEndian.PutUint64(rec[9:], uint64(n))
	binary.LittleEndian.PutUint32(rec[17:], crc)
	return rec
}

func decodeValueRef(raw []byte) (pmdk.PMID, int64, uint32, error) {
	if len(raw) != valueRefLen || raw[0] != valueRefTag {
		return 0, 0, 0, fmt.Errorf("core: not a value ref (%d bytes)", len(raw))
	}
	return pmdk.PMID(binary.LittleEndian.Uint64(raw[1:])),
		int64(binary.LittleEndian.Uint64(raw[9:])),
		binary.LittleEndian.Uint32(raw[17:]), nil
}

// --- block (subarray) store/load: the parallel write path of Figure 3 ---

// blockRec describes one stored block of a variable. crc is the CRC32C of
// the block's encLen encoded bytes, computed during the serialize-into-PMEM
// copy and published atomically with the rest of the record. pool is the
// member pool holding the block's payload — 0 on single-pool stores, and the
// stripe target on sharded namespaces, where a parallel store's shards
// round-robin from the id's home pool across all members.
type blockRec struct {
	dtype  serial.DType
	pool   uint8
	offs   []uint64
	counts []uint64
	data   pmdk.PMID
	encLen int64
	crc    uint32
}

// StoreBlock stores this rank's block of array id at the given offsets
// (Figure 2's pmem.store<T>(id, data, ndims, offsets, dimspp)). The global
// dimensions must have been declared with Alloc. data holds the block's
// row-major bytes.
func (p *PMEM) StoreBlock(id string, offs, counts []uint64, data []byte) error {
	p.asyncBarrier()
	done := p.beginOp(opStoreBlock, id)
	bytes, parallel, err := p.storeBlock(id, offs, counts, data)
	done(parallel, bytes, err)
	return err
}

func (p *PMEM) storeBlock(id string, offs, counts []uint64, data []byte) (int64, bool, error) {
	d, err := p.blockDatum(id, offs, counts, data)
	if err != nil {
		return 0, false, err
	}
	if p.st.opt.Layout == LayoutHierarchy {
		return int64(len(d.Payload)), false, p.st.hier.storeBlock(p, id, offs, d)
	}

	// Plan: one block-list append. A serial store is one block in the id's
	// home pool — serial stores never stripe, so block and metadata co-locate;
	// a large one is cut into per-worker shards striped across the pools
	// (parallel.go). The commit engine serializes DIRECTLY into the mapped PMEM
	// blocks (the single pass that defines pMEMCPY), persists, and publishes.
	encPasses, _ := p.codec.CostProfile()
	g := &planGroup{id: id, dtype: d.Type, publish: publishBlockList}
	if encSize := int64(p.codec.EncodedSize(d)); p.parallelEligible(counts, encSize) {
		g.units = p.shardUnits(id, d, offs, counts)
	} else {
		g.units = []writeUnit{{
			pool:   uint8(p.homeIdx(id)),
			offs:   append([]uint64(nil), offs...),
			counts: append([]uint64(nil), counts...),
			frags:  []writeFrag{{datum: d, encLen: encSize}},
			encLen: encSize,
			point:  ptBlockPayload,
		}}
	}
	shards := len(g.units)
	if err := p.engine().run(&writePlan{groups: []*planGroup{g}, workers: shards, encPasses: encPasses}); err != nil {
		return 0, false, err
	}
	var total int64
	for i := range g.units {
		total += g.units[i].wrote
	}
	if shards > 1 {
		p.st.parallelStores.Add(1)
		p.st.parallelBlocks.Add(int64(shards))
	}
	return total, shards > 1, nil
}

// blockDatum is the validation step under every block store, sync or async —
// exactly one set of checks, so the wrapped sentinels match: the id's declared
// dims exist, the region lies inside them, and data covers it. It returns the
// datum the codec will encode.
func (p *PMEM) blockDatum(id string, offs, counts []uint64, data []byte) (*serial.Datum, error) {
	rec, err := p.loadDimsLocked(id)
	if err != nil {
		return nil, err
	}
	if err := nd.CheckBlock(rec.dims, offs, counts); err != nil {
		return nil, err
	}
	need := int64(nd.Size(counts)) * int64(rec.dtype.Size())
	if int64(len(data)) < need {
		return nil, fmt.Errorf("core: data %d bytes, block needs %d: %w", len(data), need, ErrOutOfBounds)
	}
	return &serial.Datum{Type: rec.dtype, Dims: counts, Payload: data[:need]}, nil
}

// LoadBlock fills dst with the block (offs, counts) of array id, gathering
// from every stored block that intersects the request and deserializing
// directly from PMEM. The gather is planned against the DRAM block-index
// cache (built on the first read, coherent with every mutation) and, for
// large non-overlapping plans on a handle with read workers, scattered by the
// read engine's worker pool (readplan.go).
func (p *PMEM) LoadBlock(id string, offs, counts []uint64, dst []byte) error {
	p.asyncBarrier()
	done := p.beginOp(opLoadBlock, id)
	bytes, parallel, err := p.loadBlock(id, offs, counts, dst)
	done(parallel, bytes, err)
	return err
}

func (p *PMEM) loadBlock(id string, offs, counts []uint64, dst []byte) (int64, bool, error) {
	pl := readPlan{id: id, offs: offs, counts: counts, dst: dst}
	if err := p.reader().run(&pl); err != nil {
		return 0, false, err
	}
	return pl.covered, pl.parallel, nil
}

// loadBlockList reads and decodes the block list stored under id.
func (p *PMEM) loadBlockList(id string) ([]blockRec, bool, error) {
	raw, ok, err := p.getValue(id)
	if err != nil || !ok {
		return nil, ok, err
	}
	blocks, err := decodeBlockList(raw)
	if err != nil {
		return nil, false, err
	}
	return blocks, true, nil
}

func encodeBlockList(blocks []blockRec) []byte {
	var buf []byte
	var tmp [8]byte
	// Content-driven tag selection: the pooled form is used exactly when a
	// block lives outside pool 0, so the encoding is deterministic from the
	// records alone and single-pool stores never change on disk.
	pooled := false
	for _, b := range blocks {
		if b.pool != 0 {
			pooled = true
			break
		}
	}
	binary.LittleEndian.PutUint32(tmp[:4], uint32(len(blocks)))
	if pooled {
		buf = append(buf, blockListPooledTag)
	} else {
		buf = append(buf, blockListTag)
	}
	buf = append(buf, tmp[:4]...)
	for _, b := range blocks {
		buf = append(buf, byte(b.dtype), byte(len(b.offs)))
		if pooled {
			buf = append(buf, b.pool)
		}
		for _, o := range b.offs {
			binary.LittleEndian.PutUint64(tmp[:], o)
			buf = append(buf, tmp[:]...)
		}
		for _, c := range b.counts {
			binary.LittleEndian.PutUint64(tmp[:], c)
			buf = append(buf, tmp[:]...)
		}
		binary.LittleEndian.PutUint64(tmp[:], uint64(b.data))
		buf = append(buf, tmp[:]...)
		binary.LittleEndian.PutUint64(tmp[:], uint64(b.encLen))
		buf = append(buf, tmp[:]...)
		binary.LittleEndian.PutUint32(tmp[:4], b.crc)
		buf = append(buf, tmp[:4]...)
	}
	return buf
}

func decodeBlockList(raw []byte) ([]blockRec, error) {
	if len(raw) < 5 || !isBlockListTag(raw[0]) {
		return nil, fmt.Errorf("core: not a block list")
	}
	pooled := raw[0] == blockListPooledTag
	hdr := 2
	if pooled {
		hdr = 3 // dtype, ndims, pool
	}
	n := binary.LittleEndian.Uint32(raw[1:])
	// Each record is at least hdr+20 bytes (header + two PMIDs + CRC), so a
	// count the buffer cannot possibly hold is corruption; rejecting it here
	// keeps an attacker-controlled count from sizing the allocation below.
	if int64(n) > int64(len(raw)-5)/int64(hdr+20) {
		return nil, fmt.Errorf("core: block list truncated")
	}
	pos := 5
	out := make([]blockRec, 0, n)
	for i := uint32(0); i < n; i++ {
		if pos+hdr > len(raw) {
			return nil, fmt.Errorf("core: block list truncated")
		}
		b := blockRec{dtype: serial.DType(raw[pos])}
		ndims := int(raw[pos+1])
		if pooled {
			b.pool = raw[pos+2]
		}
		pos += hdr
		if ndims > serial.MaxDims {
			return nil, fmt.Errorf("core: block list rank %d", ndims)
		}
		if pos+16*ndims+20 > len(raw) {
			return nil, fmt.Errorf("core: block list truncated")
		}
		b.offs = make([]uint64, ndims)
		b.counts = make([]uint64, ndims)
		for j := range b.offs {
			b.offs[j] = binary.LittleEndian.Uint64(raw[pos:])
			pos += 8
		}
		for j := range b.counts {
			b.counts[j] = binary.LittleEndian.Uint64(raw[pos:])
			pos += 8
		}
		b.data = pmdk.PMID(binary.LittleEndian.Uint64(raw[pos:]))
		pos += 8
		b.encLen = int64(binary.LittleEndian.Uint64(raw[pos:]))
		pos += 8
		b.crc = binary.LittleEndian.Uint32(raw[pos:])
		pos += 4
		out = append(out, b)
	}
	return out, nil
}
