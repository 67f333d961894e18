package core

import (
	"fmt"
	"strings"

	"pmemcpy/internal/nd"
)

// VerifyStore checks the core-level metadata invariants of the store on top
// of the pmdk structural checks (internal/fsck): every metadata record must
// decode, every block list must point at allocated blocks that are large
// enough and lie inside the variable's declared dims, every variable with
// stored blocks must have a dims record, and an inline value must be no longer
// than inlineMax and lie inside its record's value block. It returns one
// message per violated invariant (nil when clean). Hierarchy-layout stores are
// backed by the filesystem model and have no pool to verify.
func (p *PMEM) VerifyStore() []string {
	if !p.st.lay.caps().pool {
		return nil
	}
	var vs []string
	violatef := func(format string, args ...any) {
		vs = append(vs, fmt.Sprintf(format, args...))
	}
	keys, err := p.Keys()
	if err != nil {
		return []string{fmt.Sprintf("store.keys: walking metadata: %v", err)}
	}
	for _, key := range keys {
		p.verifyRecord(key, violatef)
	}
	return vs
}

// verifyRecord holds one key's record to the invariants, under the key's read
// lock: the record is read where it sits.
func (p *PMEM) verifyRecord(key string, violatef func(format string, args ...any)) {
	clk := p.comm.Clock()
	v := p.variable(key)
	v.RLock()
	defer v.RUnlock()
	raw, at, ok, err := p.record(key)
	if err != nil || !ok {
		violatef("store.value: reading %q: ok=%v err=%v", key, ok, err)
		return
	}
	if strings.HasSuffix(key, DimsSuffix) {
		rec, err := decodeDims(raw, nil)
		if err != nil {
			violatef("store.dims: %q: %v", key, err)
			return
		}
		if rec.dtype.Size() <= 0 {
			violatef("store.dims: %q declares dims for non-fixed-size type %v", key, rec.dtype)
		}
		return
	}
	blocks, kind, err := decodeRecord(raw, at, nil)
	switch {
	case kind == recInline:
		if usable, uerr := p.poolOf(at.pool).UsableSize(clk, at.id); err != nil || uerr != nil || int64(len(raw)) > usable {
			violatef("store.inline: %q: record of %d bytes in a value block of %d: decode %v, block %v",
				key, len(raw), usable, err, uerr)
		}
	case err != nil:
		violatef("store.record: %q: undecodable %v: %v", key, kind, err)
	case kind == recBlockList:
		rec, err := p.heldDims(key, nil)
		if err != nil {
			violatef("store.blocklist: %q has blocks but no dims record: %v", key, err)
			return
		}
		for i, b := range blocks {
			if b.dtype != rec.dtype {
				violatef("store.block: %q block %d stored as %v, declared %v",
					key, i, b.dtype, rec.dtype)
			}
			if err := nd.CheckBlock(rec.dims, b.offs, b.counts); err != nil {
				violatef("store.block: %q block %d outside declared dims: %v", key, i, err)
			}
			usable, err := p.poolOf(b.pool).UsableSize(clk, b.data)
			if err != nil {
				violatef("store.block: %q block %d payload %d not allocated: %v",
					key, i, b.data, err)
			} else if b.encLen > usable {
				violatef("store.block: %q block %d encLen %d exceeds block payload %d",
					key, i, b.encLen, usable)
			}
		}
	case kind == recValueRef:
		b := blocks[0]
		usable, err := p.poolOf(b.pool).UsableSize(clk, b.data)
		if err != nil {
			violatef("store.valueref: %q payload %d not allocated: %v", key, b.data, err)
		} else if b.encLen > usable {
			violatef("store.valueref: %q length %d exceeds block payload %d", key, b.encLen, usable)
		}
	default:
		// Raw metadata record without the dims suffix: nothing produced
		// by this package writes these, but they are not provably
		// corrupt, so they pass.
	}
}
