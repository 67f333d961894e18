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
	done := p.beginOp(opDelete, id)
	lock := p.varLock(id)
	lock.Lock()
	existed, err := p.st.lay.del(p, id)
	lock.Unlock()
	done(false, 0, err)
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
	// Plan: serialize directly into one block (framed by the 1-byte type tag a
	// whole value's block opens with), then publish it as the KV value. Whole
	// values live in the id's home pool — the same pool as their pointer record
	// — so a value ref needs no pool field. The layout's commit runs the
	// alloc/fill/persist/publish sequence.
	u := writeUnit{
		pool:   uint8(p.homeIdx(id)),
		frags:  []writeFrag{{datum: d, encLen: need - 1}},
		encLen: need,
		point:  ptDatumPayload,
	}
	// A large value under an identity-encoding codec (raw) is a plain payload
	// copy, so disjoint byte ranges of it can be written concurrently: the one
	// fragment becomes one per worker and the fill one concurrent wave.
	if ie, ok := p.codec.(serial.IdentityEncoder); ok && ie.IdentityEncode() && p.wideStore(need) {
		u.frags, u.point = chunkFrags(d.Payload, p.st.opt.Parallelism), ptDatumChunk
	}
	workers := len(u.frags)
	plan := writePlan{
		workers:   workers,
		encPasses: encPasses,
		groups:    []planGroup{{id: id, dtype: d.Type, publish: publishValueRef, units: []writeUnit{u}}},
	}
	if err := p.st.lay.commit(p, plan); err != nil {
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

// --- block (subarray) store/load: the parallel write path of Figure 3 ---

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
	// Plan: one block-list append. A serial store is one block in the id's
	// home pool — serial stores never stripe, so block and metadata co-locate;
	// a large one is cut into per-worker shards striped across the pools
	// (parallel.go). The layout's commit serializes the units — on the pool
	// layout DIRECTLY into the mapped PMEM blocks, the single pass that defines
	// pMEMCPY — persists, and publishes.
	encPasses, _ := p.codec.CostProfile()
	var units []writeUnit
	if encSize := int64(p.codec.EncodedSize(d)); p.parallelEligible(counts, encSize) {
		units = p.shardUnits(id, d, offs, counts)
	} else {
		units = []writeUnit{{
			pool:   uint8(p.homeIdx(id)),
			offs:   append([]uint64(nil), offs...),
			counts: append([]uint64(nil), counts...),
			frags:  []writeFrag{{datum: d, encLen: encSize}},
			encLen: encSize,
			point:  ptBlockPayload,
		}}
	}
	shards := len(units)
	plan := writePlan{
		groups:    []planGroup{{id: id, dtype: d.Type, publish: publishBlockList, units: units}},
		workers:   shards,
		encPasses: encPasses,
	}
	if err := p.st.lay.commit(p, plan); err != nil {
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
func (p *PMEM) blockDatum(id string, offs, counts []uint64, data []byte) (*serial.Datum, error) {
	rec, err := p.loadDims(id)
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
