package core

import (
	"fmt"
	"slices"

	"pmemcpy/internal/pmdk"
)

// OptionsArg surfaces the unexported whole-struct option adapter to the
// external test package: many tests resolve a complete Options value up
// front, and converting each to a chain of With* calls would only obscure
// what configuration is under test. Compiled into test binaries only.
func OptionsArg(o *Options) MmapOption {
	if o == nil {
		return optionsOption(Options{})
	}
	return optionsOption(*o)
}

// RawValue returns the raw metadata record stored under id — value refs,
// block lists, dims records — exactly as published. The write-path
// equivalence suite compares these bytes across store modes: identical
// records mean identical CRCs, block layout, and pool placement.
func (p *PMEM) RawValue(id string) ([]byte, bool, error) {
	return p.st.lay.get(p.comm.Clock(), id, "")
}

// BlockAllocated reports whether the allocator holds the block at id of
// member pool as allocated — the overwrite crash tests ask it of the block a
// record names and of the block it stopped naming.
func (p *PMEM) BlockAllocated(pool int, id int64) bool {
	_, err := p.poolOf(uint8(pool)).UsableSize(p.comm.Clock(), pmdk.PMID(id))
	return err == nil
}

// RawMaps surfaces the explorer's raw per-device mappings of a namespace's
// pool file, for tests that damage or fsck the bytes directly.
var RawMaps = rawMaps

// NamedBlocks returns the (pool, PMID) of every block id's record names: a
// block list's blocks or a value ref's block — none for an inline value, raw
// metadata or an absent id. The record-change tests hold the allocator to it.
func (p *PMEM) NamedBlocks(id string) ([][2]int64, error) {
	v := p.variable(id)
	v.RLock()
	defer v.RUnlock()
	raw, at, ok, err := p.record(v, id)
	if err != nil || !ok {
		return nil, err
	}
	blocks, kind, _, err := decodeRecord(raw, at, nil)
	if err != nil || kind == recInline {
		return nil, err
	}
	out := make([][2]int64, len(blocks))
	for i, b := range blocks {
		out[i] = [2]int64{int64(b.pool), int64(b.data)}
	}
	return out, nil
}

// PoolStats returns each member pool's allocator counters, for tests that
// hold the Metrics() bridge series to their sum.
func (p *PMEM) PoolStats() []pmdk.Stats {
	out := make([]pmdk.Stats, len(p.st.pools))
	for i, pool := range p.st.pools {
		out[i] = pool.Stats()
	}
	return out
}

// EntryHint returns the hashtable entry key's variable holds as key's hint
// (key is an id or its "#dims" companion) and the entry an unhinted lookup of
// key finds, each 0 when there is none.
func (p *PMEM) EntryHint(key string) (hint, walk int64, err error) {
	v := p.variable(key)
	v.RLock()
	defer v.RUnlock()
	if h := v.hint(key); h != nil {
		hint = int64(h.Load())
	}
	_, _, e, err := p.st.hts[p.homeIdx(key)].GetRefAt(p.comm.Clock(), []byte(key), pmdk.Null)
	return hint, int64(e), err
}

// DimsSlot holds the dims slot of id's variable to a fresh decode of id's
// "#dims" record: it reports whether the slot is full, and an error when a
// full slot is not exactly the record.
func (p *PMEM) DimsSlot(id string) (bool, error) {
	v := p.variable(id)
	v.RLock()
	defer v.RUnlock()
	slot, full := v.dims.get(nil)
	if !full {
		return false, nil
	}
	raw, _, ok, err := p.record(v, id+DimsSuffix)
	var rec dimsRecord
	if ok && err == nil {
		rec, err = decodeDims(raw, nil)
	}
	if !ok || err != nil || rec.dtype != slot.dtype || !slices.Equal(rec.dims, slot.dims) {
		return true, fmt.Errorf("%q: the dims slot holds %v %v, the record %v %v (found %v, %v)",
			id, slot.dtype, slot.dims, rec.dtype, rec.dims, ok, err)
	}
	return true, nil
}
