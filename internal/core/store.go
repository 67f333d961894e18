package core

import (
	"fmt"
	"sort"

	"pmemcpy/internal/nd"
	"pmemcpy/internal/serial"
)

// Delete removes id (and not its "#dims" companion; delete that separately
// if desired). It reports whether the id existed.
func (p *PMEM) Delete(id string) (bool, error) {
	p.asyncBarrier()
	op := p.beginOp(opDelete, id)
	v := p.variable(id)
	v.Lock()
	existed, err := p.st.lay.del(p, id)
	v.Unlock()
	op.done(false, 0, err)
	return existed, err
}

// Keys lists every stored id (including "#dims" companions) in sorted order,
// so tooling output (pmemcli, pmemfsck) and tests are deterministic across
// hashtable bucket layouts.
func (p *PMEM) Keys() ([]string, error) {
	p.asyncBarrier()
	out, err := p.st.lay.keys(p.comm.Clock())
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
	op := p.beginOp(opStoreDatum, id)
	bytes, parallel, err := p.storeDatum(id, d)
	op.done(parallel, bytes, err)
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
// bytes written and whether the fill ran on the worker pool. The plan holds
// the handle's copy of the datum, so the caller's stays where it is — on its
// stack, for Store and StoreString.
func (p *PMEM) commitDatum(id string, value *serial.Datum) (int64, bool, error) {
	w := p.wscratch()
	defer w.reset()
	w.datum = *value
	d := &w.datum
	encPasses, _ := p.codec.CostProfile()
	need := int64(p.codec.EncodedSize(d)) + 1
	// Plan: serialize directly into one block (framed by the 1-byte type tag a
	// whole value's block opens with), then publish it as the KV value. Whole
	// values live in the id's home pool — the same pool as their pointer record
	// — so a value ref needs no pool field. The layout's commit runs the
	// alloc/fill/persist/publish sequence.
	u := w.one(id, d.Type, publishValueRef, writeUnit{
		pool:   uint8(p.homeIdx(id)),
		encLen: need,
		point:  ptDatumPayload,
	}, need-1)
	// A large value under an identity-encoding codec (raw) is a plain payload
	// copy, so disjoint byte ranges of it can be written concurrently: the one
	// fragment becomes one per worker and the fill one concurrent wave.
	if ie, ok := p.codec.(serial.IdentityEncoder); ok && ie.IdentityEncode() && p.wideStore(need) {
		u.frags, u.point = chunkFrags(d.Payload, p.st.opt.Parallelism), ptDatumChunk
	}
	workers := len(u.frags)
	if err := p.st.lay.commit(p, writePlan{workers: workers, encPasses: encPasses, groups: w.group[:]}); err != nil {
		return 0, false, err
	}
	if workers > 1 {
		p.st.parallelStores.Add(1)
		p.st.parallelBlocks.Add(int64(workers))
	}
	return u.wrote, workers > 1, nil
}

// writeScratch is where a one-unit plan — a whole value, or a block stored
// on the serial path — is built: the handle's, like its inline-record buffer,
// because a plan crosses the layout interface by value and everything it
// points at would otherwise move to the heap — the datum and three
// one-element slices (frags, units, groups) per store. It is allocated by the
// first such store and reset after each, so it keeps no caller's payload
// alive.
type writeScratch struct {
	datum serial.Datum
	frag  [1]writeFrag
	unit  [1]writeUnit
	group [1]planGroup
}

// wscratch returns the handle's write scratch, allocating it on first use.
func (p *PMEM) wscratch() *writeScratch {
	if p.ws == nil {
		p.ws = new(writeScratch)
	}
	return p.ws
}

// one makes u, encoding the scratch datum as its one fragment of encLen
// bytes, the plan's one unit of id's one group, and returns it.
func (w *writeScratch) one(id string, dtype serial.DType, publish publishKind, u writeUnit, encLen int64) *writeUnit {
	w.frag[0] = writeFrag{datum: &w.datum, encLen: encLen}
	u.frags = w.frag[:]
	w.unit[0] = u
	w.group[0] = planGroup{id: id, dtype: dtype, publish: publish, units: w.unit[:]}
	return &w.unit[0]
}

func (w *writeScratch) reset() { *w = writeScratch{} }

// LoadDatum loads a datum stored with StoreDatum, deserializing directly
// from PMEM. The returned payload is a private copy.
func (p *PMEM) LoadDatum(id string) (*serial.Datum, error) {
	pl := readPlan{id: id, consume: consumeClone}
	if err := p.loadWhole(&pl); err != nil {
		return nil, err
	}
	return pl.datum, nil
}

// LoadInto is LoadDatum into the caller's buffer: it copies the payload of
// the whole value stored under id into dst — its first len(dst) bytes, when
// the payload is longer — and returns the value's element type and payload
// length. Nothing is allocated for the value.
func (p *PMEM) LoadInto(id string, dst []byte) (serial.DType, int, error) {
	pl := readPlan{id: id, consume: consumeClone, dst: dst}
	err := p.loadWhole(&pl)
	return pl.dtype, pl.n, err
}

// loadWhole runs a whole-value read plan as one load_datum op.
func (p *PMEM) loadWhole(pl *readPlan) error {
	p.asyncBarrier()
	op := p.beginOp(opLoadDatum, pl.id)
	err := p.reader().run(pl)
	bytes := pl.covered
	if err != nil {
		bytes = 0
	}
	op.done(false, bytes, err)
	return err
}

// --- block (subarray) store/load: the parallel write path of Figure 3 ---

// StoreBlock stores this rank's block of array id at the given offsets
// (Figure 2's pmem.store<T>(id, data, ndims, offsets, dimspp)). The global
// dimensions must have been declared with Alloc. data holds the block's
// row-major bytes.
func (p *PMEM) StoreBlock(id string, offs, counts []uint64, data []byte) error {
	p.asyncBarrier()
	op := p.beginOp(opStoreBlock, id)
	bytes, parallel, err := p.storeBlock(id, offs, counts, data)
	op.done(parallel, bytes, err)
	return err
}

func (p *PMEM) storeBlock(id string, offs, counts []uint64, data []byte) (int64, bool, error) {
	w := p.wscratch()
	defer w.reset()
	var err error
	if w.datum, err = p.blockDatum(id, offs, counts, data); err != nil {
		return 0, false, err
	}
	d := &w.datum
	// Plan: one block-list append. A serial store is one block in the id's
	// home pool — serial stores never stripe, so block and metadata co-locate;
	// a large one is cut into per-worker shards striped across the pools
	// (parallel.go). The layout's commit serializes the units — on the pool
	// layout DIRECTLY into the mapped PMEM blocks, the single pass that defines
	// pMEMCPY — persists, and publishes. The caller's offs and counts outlive
	// the commit, which only encodes them into the record.
	encPasses, _ := p.codec.CostProfile()
	if encSize := int64(p.codec.EncodedSize(d)); p.parallelEligible(counts, encSize) {
		w.group[0] = planGroup{id: id, dtype: d.Type, publish: publishBlockList, units: p.shardUnits(id, d, offs, counts)}
	} else {
		w.one(id, d.Type, publishBlockList, writeUnit{
			pool:   uint8(p.homeIdx(id)),
			offs:   offs,
			counts: counts,
			encLen: encSize,
			point:  ptBlockPayload,
		}, encSize)
	}
	units := w.group[0].units
	shards := len(units)
	if err := p.st.lay.commit(p, writePlan{groups: w.group[:], workers: shards, encPasses: encPasses}); err != nil {
		return 0, false, err
	}
	var total int64
	for i := range units {
		total += units[i].wrote
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
func (p *PMEM) blockDatum(id string, offs, counts []uint64, data []byte) (serial.Datum, error) {
	var buf [serial.MaxDims]uint64
	rec, err := p.loadDims(id, buf[:0])
	if err != nil {
		return serial.Datum{}, err
	}
	if err := nd.CheckBlock(rec.dims, offs, counts); err != nil {
		return serial.Datum{}, err
	}
	need := int64(nd.Size(counts)) * int64(rec.dtype.Size())
	if int64(len(data)) < need {
		return serial.Datum{}, fmt.Errorf("core: data %d bytes, block needs %d: %w", len(data), need, ErrOutOfBounds)
	}
	return serial.Datum{Type: rec.dtype, Dims: counts, Payload: data[:need]}, nil
}

// LoadBlock fills dst with the block (offs, counts) of array id, gathering
// from every stored block that intersects the request and deserializing
// directly from PMEM. The gather is planned against the DRAM block-index
// cache (built on the first read, coherent with every mutation) and, for
// large non-overlapping plans on a handle with read workers, scattered by the
// read engine's worker pool (readplan.go).
func (p *PMEM) LoadBlock(id string, offs, counts []uint64, dst []byte) error {
	p.asyncBarrier()
	op := p.beginOp(opLoadBlock, id)
	bytes, parallel, err := p.loadBlock(id, offs, counts, dst)
	op.done(parallel, bytes, err)
	return err
}

func (p *PMEM) loadBlock(id string, offs, counts []uint64, dst []byte) (int64, bool, error) {
	pl := readPlan{id: id, offs: offs, counts: counts, dst: dst}
	if err := p.reader().run(&pl); err != nil {
		return 0, false, err
	}
	return pl.covered, pl.parallel, nil
}
