package core

import (
	"context"
	"fmt"
)

// Compact reclaims shadowed blocks of array id: StoreBlock appends, so
// overwriting a region leaves the older block's storage live but invisible
// (reads resolve to the latest block covering each element). Compact frees
// every block whose entire region is contained in a single newer block and
// rewrites the block list. It returns the number of blocks freed.
//
// The containment rule is conservative — a block shadowed only by the union
// of several newer blocks is kept — so Compact never changes what reads
// return; the invariant is verified by the tests, which compare full-array
// contents before and after.
//
// The pass is one record change (writeplan.go): the list is read from the
// change's cursor, and the pruned list commits with the shadowed blocks
// dropped in the same transaction. ctx cancellation is honoured before the
// analysis and before the commit; either way nothing has changed.
func (p *PMEM) Compact(ctx context.Context, id string) (int, error) {
	p.asyncBarrier()
	op := p.beginOp(opCompact, id)
	freed, err := p.compact(ctx, id)
	op.done(false, 0, err)
	return freed, err
}

func (p *PMEM) compact(ctx context.Context, id string) (int, error) {
	if !p.st.lay.caps().pool {
		return 0, fmt.Errorf("core: Compact requires the hashtable layout")
	}
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	v := p.variable(id)
	v.Lock()
	defer v.Unlock()

	e := p.engine()
	t, owned, err := e.open(id, nil)
	if err != nil {
		return 0, err
	}
	blocks, err := t.list(owned)
	if err == nil && !t.found {
		err = fmt.Errorf("core: %q has no stored blocks: %w", id, ErrNotFound)
	}
	if err != nil {
		return 0, t.u.Finish(err)
	}

	// A block i is dead if some newer block j > i contains its region.
	var live, victims []blockRec
	for i, b := range blocks {
		dead := false
		for j := i + 1; j < len(blocks) && !dead; j++ {
			dead = contains(blocks[j].offs, blocks[j].counts, b.offs, b.counts)
		}
		if dead {
			victims = append(victims, b)
		} else {
			live = append(live, b)
		}
	}
	if err := ctx.Err(); err != nil || len(victims) == 0 {
		return 0, t.u.Finish(err)
	}
	if err := e.close(&t, blockList.encode(live), victims); err != nil {
		return 0, err
	}
	return len(victims), nil
}

// contains reports whether block (aOffs, aCnts) fully contains (bOffs, bCnts).
func contains(aOffs, aCnts, bOffs, bCnts []uint64) bool {
	if len(aOffs) != len(bOffs) {
		return false
	}
	for d := range aOffs {
		if bOffs[d] < aOffs[d] || bOffs[d]+bCnts[d] > aOffs[d]+aCnts[d] {
			return false
		}
	}
	return true
}
