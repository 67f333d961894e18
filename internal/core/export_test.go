package core

import (
	"fmt"
	"reflect"
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

// AllocatedBlocks counts the allocated blocks of every member pool by a walk
// of their block headers (pmdk.Pool.Census).
func (p *PMEM) AllocatedBlocks() (int64, error) {
	var n int64
	for _, pool := range p.st.pools {
		a, _, err := pool.Census(p.comm.Clock())
		if err != nil {
			return 0, err
		}
		n += a
	}
	return n, nil
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

// The fields of a variable's DRAM state, as VariableAgrees reports them.
const (
	KnownEntry     = knownAt
	KnownDimsEntry = knownDimsAt
	KnownDims      = knownDims
	KnownIndex     = knownIndex
)

// VariableAgrees holds every field id's variable knows to the media — each
// entry to an unhinted walk, the dims to a fresh decode of the "#dims" record,
// the index to a fresh decode of the block list — and returns the Known* bits
// of the fields it knows, with an error naming the first that disagrees.
func (p *PMEM) VariableAgrees(id string) (uint32, error) {
	id = placementKey(id)
	v := p.variable(id)
	v.RLock()
	defer v.RUnlock()
	known, clk := v.known.Load(), p.comm.Clock()
	for i, key := range []string{id, id + DimsSuffix} {
		if known&(knownAt<<i) == 0 {
			continue
		}
		_, _, walk, err := p.st.hts[p.homeIdx(key)].GetRefAt(clk, []byte(key), pmdk.Null)
		if err != nil || walk != v.at[i] {
			return known, fmt.Errorf("%q: the variable holds entry %d, the walk finds %d (%v)", key, v.at[i], walk, err)
		}
	}
	if known&knownDims != 0 {
		raw, ok, err := p.st.lay.get(clk, id, DimsSuffix)
		var rec dimsRecord
		if ok && err == nil {
			rec, err = decodeDims(raw, nil)
		}
		if !ok || err != nil || rec.dtype != v.dtype || !slices.Equal(rec.dims, v.dims[:v.rank]) {
			return known, fmt.Errorf("%q: the variable holds dims %v %v, the record %v %v (found %v, %v)",
				id, v.dtype, v.dims[:v.rank], rec.dtype, rec.dims, ok, err)
		}
	}
	if known&knownIndex != 0 {
		raw, ok, err := p.st.lay.get(clk, id, "")
		fresh := blockIndex{hasBlocks: ok}
		if ok && err == nil {
			fresh.blocks, fresh.dropped, err = blockList.decode(raw)
		}
		fresh.ascending = ascending(fresh.blocks)
		if err != nil || !reflect.DeepEqual(fresh, v.index) {
			return known, fmt.Errorf("%q: the variable holds index %+v, the block list decodes to %+v (%v)", id, v.index, fresh, err)
		}
	}
	return known, nil
}
