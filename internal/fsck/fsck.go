// Package fsck checks the structural invariants of a pMEMCPY pool the way a
// filesystem checker does: open the pool (which runs lane recovery exactly as
// a post-crash restart would), then verify the allocator, lane, and hashtable
// invariants the pmdk layer maintains. It is the reusable core shared by the
// cmd/pmemfsck CLI and the crash-point explorer in internal/core.
package fsck

import (
	"errors"
	"fmt"
	"strings"

	"pmemcpy/internal/pmdk"
	"pmemcpy/internal/pmem"
	"pmemcpy/internal/sim"
)

// Report is the result of one Check run.
type Report struct {
	// Violations lists every violated invariant, in detection order.
	Violations []pmdk.Violation
	// Recovered is the number of transaction lanes rolled back while opening
	// the pool.
	Recovered int64
	// Keys is the number of hashtable entries walked (0 when the pool has no
	// published hashtable).
	Keys int
	// HasTable reports whether the pool root pointed at a hashtable.
	HasTable bool
}

// OK reports whether no invariant was violated.
func (r *Report) OK() bool { return len(r.Violations) == 0 }

// First returns the first violated invariant, or nil when the pool is clean.
func (r *Report) First() *pmdk.Violation {
	if len(r.Violations) == 0 {
		return nil
	}
	return &r.Violations[0]
}

// Summary returns a one-line human-readable result.
func (r *Report) Summary() string {
	if r.OK() {
		return fmt.Sprintf("pool clean: %d keys, %d lanes recovered", r.Keys, r.Recovered)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%d invariant(s) violated; first: %s", len(r.Violations), r.First())
	return b.String()
}

// Corruption identifies one stored block whose bytes no longer match the
// CRC32C published with its metadata.
type Corruption struct {
	// ID is the variable owning the block.
	ID string
	// Block is the index within the id's block list, or -1 for a whole value
	// (StoreDatum payloads), in a block of its own or inline in its record.
	Block int
	// Offset is the pool offset of the block's payload — for an inline value,
	// of its bytes inside the metadata record's value block.
	Offset int64
	// Len is the encoded length covered by the CRC.
	Len int64
}

func (c Corruption) String() string {
	if c.Block < 0 {
		return fmt.Sprintf("id %q value at offset %d (%d bytes)", c.ID, c.Offset, c.Len)
	}
	return fmt.Sprintf("id %q block %d at offset %d (%d bytes)", c.ID, c.Block, c.Offset, c.Len)
}

// DeepReport is the result of a CRC sweep over every published block
// (core.DeepCheck, pmemfsck -deep): the content-level companion of the
// structural Report. The types live here, not in internal/core, because core
// already imports this package for its crash-point explorer.
type DeepReport struct {
	// Blocks is the number of blocks whose CRC was verified.
	Blocks int64
	// Bytes is the total encoded bytes those CRCs cover.
	Bytes int64
	// Corrupt lists every block whose recomputed CRC differed, in the
	// deterministic sweep order (ids sorted, blocks in publish order).
	Corrupt []Corruption
	// Unranged lists every array, in sweep order, whose block list lost the
	// value range of a block an overwrite dropped (a NaN trailer): its MinMax
	// is ErrCorrupt until the array is stored whole or deleted.
	Unranged []string
}

// OK reports whether every CRC matched and every dropped range is known.
func (r *DeepReport) OK() bool { return len(r.Corrupt) == 0 && len(r.Unranged) == 0 }

// Summary returns a one-line human-readable result.
func (r *DeepReport) Summary() string {
	switch {
	case r.OK():
		return fmt.Sprintf("deep check clean: %d blocks, %d bytes verified", r.Blocks, r.Bytes)
	case len(r.Corrupt) == 0:
		return fmt.Sprintf("%d blocks verified; %d array(s) lost a dropped block's range; first: %q",
			r.Blocks, len(r.Unranged), r.Unranged[0])
	}
	return fmt.Sprintf("%d corrupt block(s) of %d checked; first: %s",
		len(r.Corrupt), r.Blocks, r.Corrupt[0])
}

// Check opens the pool in m (running crash recovery, as any consumer of the
// pool would) and verifies its structural invariants. Failure to open at all
// is itself reported as a violation rather than an error: a pool that cannot
// be opened after a crash is the checker's most important finding. The
// returned error is reserved for infrastructure problems (unreadable
// mapping).
func Check(clk *sim.Clock, m *pmem.Mapping) (*Report, error) {
	rep := &Report{}
	pool, err := pmdk.Open(clk, m)
	if err != nil {
		rep.Violations = append(rep.Violations, pmdk.Violation{
			Invariant: "pool.open",
			Detail:    err.Error(),
		})
		return rep, nil
	}
	rep.Recovered = pool.Stats().Recovered
	rep.Violations = append(rep.Violations, pool.Verify(clk)...)

	// pMEMCPY publishes its hashtable through the root object; an empty root
	// means a bare pool, which is legal.
	root, _ := pool.Root()
	htID, err := pool.ReadU64(clk, root)
	if err != nil {
		return rep, err
	}
	if htID == 0 {
		return rep, nil
	}
	rep.HasTable = true
	h, err := pmdk.OpenHashtable(clk, pool, pmdk.PMID(htID))
	if err != nil {
		rep.Violations = append(rep.Violations, pmdk.Violation{
			Invariant: "ht.open",
			Detail:    err.Error(),
		})
		return rep, nil
	}
	rep.Violations = append(rep.Violations, h.Verify(clk)...)
	if n, err := h.Len(clk); err == nil {
		rep.Keys = n
	}
	return rep, nil
}

// SetReport is the result of one CheckSet run over a namespace.
type SetReport struct {
	// Published reports whether the set's publish record (pool 0) is durable.
	Published bool
	// Violations lists cross-pool invariant violations (set.* invariants).
	Violations []pmdk.Violation
	// Pools holds the per-member structural reports, only populated for a
	// published set (an unpublished set has no structure to hold to).
	Pools []*Report
}

// OK reports whether the set is consistent: either cleanly unpublished
// (creation crashed before the commit point — the namespace never existed)
// or published with every member structurally clean.
func (r *SetReport) OK() bool {
	if len(r.Violations) != 0 {
		return false
	}
	for _, p := range r.Pools {
		if !p.OK() {
			return false
		}
	}
	return true
}

// First returns the first violated invariant across the set, or nil.
func (r *SetReport) First() *pmdk.Violation {
	if len(r.Violations) != 0 {
		return &r.Violations[0]
	}
	for _, p := range r.Pools {
		if v := p.First(); v != nil {
			return v
		}
	}
	return nil
}

// Summary returns a one-line human-readable result.
func (r *SetReport) Summary() string {
	if !r.OK() {
		n := len(r.Violations)
		for _, p := range r.Pools {
			n += len(p.Violations)
		}
		return fmt.Sprintf("%d invariant(s) violated across set; first: %s", n, r.First())
	}
	if !r.Published {
		return "set unpublished (creation never committed)"
	}
	keys := 0
	for _, p := range r.Pools {
		keys += p.Keys
	}
	return fmt.Sprintf("set clean: %d pools, %d keys", len(r.Pools), keys)
}

// CheckSet verifies a namespace of any member count: the commit protocol's
// membership invariants first, then each member pool structurally. The
// asymmetry mirrors the protocol's recovery rule — while the publish record is
// absent the namespace legitimately does not exist, so missing or torn members
// are not violations; once it is there, every member descriptor was persisted
// before it and anything invalid is corruption, a damaged record included.
func CheckSet(clk *sim.Clock, maps []*pmem.Mapping) (*SetReport, error) {
	rep := &SetReport{}
	if len(maps) == 0 {
		return rep, fmt.Errorf("fsck: CheckSet needs at least one mapping")
	}
	d0, err := pmdk.ReadSetDesc(clk, maps[0])
	if errors.Is(err, pmdk.ErrSetUnpublished) {
		// Creation never reached the commit point: a consistent (empty)
		// namespace regardless of how far the member pools got.
		return rep, nil
	}
	if err != nil {
		rep.Violations = append(rep.Violations, pmdk.Violation{Invariant: "set.publish", Detail: err.Error()})
		return rep, nil
	}
	rep.Published = true
	for i, m := range maps {
		invariant, d := "set.publish", d0
		if i > 0 {
			invariant = "set.member"
			d, err = pmdk.ReadSetDesc(clk, m)
		}
		want := pmdk.SetDesc{SetID: d0.SetID, Index: i, Count: len(maps)}
		if err == nil && d != want {
			err = fmt.Errorf("descriptor %+v, want %+v", d, want)
		}
		if err != nil {
			rep.Violations = append(rep.Violations, pmdk.Violation{
				Invariant: invariant,
				Detail:    fmt.Sprintf("member %d under a published set: %v", i, err),
			})
		}
		pr, err := Check(clk, m)
		if err != nil {
			return rep, err
		}
		rep.Pools = append(rep.Pools, pr)
	}
	return rep, nil
}
