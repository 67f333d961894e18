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
// ctx cancellation (mirroring Scrub) is honoured before the analysis and
// before the free phase; once the pruned list is published the pass runs to
// completion, so cancellation never leaks more than one transaction's worth
// of work and never dangles pointers.
func (p *PMEM) Compact(ctx context.Context, id string) (int, error) {
	p.asyncBarrier()
	done := p.beginOp(opCompact, id)
	freed, err := p.compact(ctx, id)
	done(false, 0, err)
	return freed, err
}

func (p *PMEM) compact(ctx context.Context, id string) (int, error) {
	if !p.st.lay.caps().pool {
		return 0, fmt.Errorf("core: Compact requires the hashtable layout")
	}
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	lock := p.varLock(id)
	lock.Lock()
	defer lock.Unlock()

	blocks, ok, err := p.loadBlockList(id)
	if err != nil {
		return 0, err
	}
	if !ok {
		return 0, fmt.Errorf("core: %q has no stored blocks: %w", id, ErrNotFound)
	}

	// A block i is dead if some newer block j > i contains its region.
	dead := make([]bool, len(blocks))
	for i := range blocks {
		for j := i + 1; j < len(blocks); j++ {
			if contains(blocks[j].offs, blocks[j].counts, blocks[i].offs, blocks[i].counts) {
				dead[i] = true
				break
			}
		}
	}
	var live []blockRec
	var victims []blockRec
	for i, b := range blocks {
		if dead[i] {
			victims = append(victims, b)
		} else {
			live = append(live, b)
		}
	}
	if len(victims) == 0 {
		return 0, nil
	}
	if err := ctx.Err(); err != nil {
		return 0, err
	}

	// Publish the pruned list first, then free the storage: a crash between
	// the two leaks blocks (recoverable garbage) but never dangles pointers.
	// The commit engine's republish drops the DRAM index before the blocks
	// are freed so no reader can plan a gather against a PMID that a
	// concurrent reuse may repurpose.
	if err := p.engine().republishLocked(id, live); err != nil {
		return 0, err
	}
	// With zero-copy view leases open the victims park on the limbo lists
	// instead of freeing (view.go): a view planned against the old block list
	// keeps reading its blocks until the lease epoch drains.
	if err := p.deferOrFreeBlocks(victims); err != nil {
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
