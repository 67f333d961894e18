package core

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"time"

	"pmemcpy/internal/fsck"
	"pmemcpy/internal/pmdk"
	"pmemcpy/internal/sim"
)

// Integrity layer: detect and contain corruption instead of returning garbage.
//
// Every stored block carries a CRC32C (internal/checksum) computed during the
// serialize-into-PMEM copy and published atomically with the block's metadata
// — the value-ref or inline record for whole values, the block-list record
// for array blocks. Three consumers recompute it, all as read plans whose quarantine
// gate and CRC compare run in the one read engine (readplan.go):
//
//   - verified reads (WithVerifyReads): LoadDatum/LoadBlock check the CRC of
//     every gathered block before decoding, in full or sampled mode;
//   - the scrubber (Scrub / WithScrubber): an explicit, rate-limited sweep
//     over every published block that quarantines failures;
//   - deep checks (DeepCheck, pmemfsck -deep, the crash-point explorer): an
//     exhaustive diagnostic sweep that reports but does not quarantine.
//
// Clock discipline: CRC verification on the read path charges NO virtual
// time — the checksum pass streams the same bytes the gather is about to
// move, so its memory traffic overlaps the decode in the model. Virtual-time
// results are therefore bit-identical across verify modes; E15 measures the
// host-side wall cost instead. The scrubber is the opposite: it is an
// explicit maintenance op, so it charges the device read cost of every block
// it sweeps and additionally paces itself against the virtual clock when a
// rate limit is set.
//
// Quarantine: blocks that fail a scrub are recorded in a persistent
// quarantine list under the reserved "#quarantine" metadata key, so reads
// fail fast with ErrCorrupt — across crashes and reopens — instead of
// re-reading bad media. Every record change drops the PMIDs it frees from the
// list, since the allocator may hand the same storage to a healthy new block.

// VerifyMode selects how aggressively reads check block CRCs.
type VerifyMode int

// Verify modes.
const (
	// VerifyOff performs no read-path CRC checks (the default); quarantine
	// fail-fast still applies.
	VerifyOff VerifyMode = iota
	// VerifySampled fully verifies every verifySampleEvery-th load
	// operation, bounding the steady-state overhead while still catching
	// stuck-at corruption on hot data.
	VerifySampled
	// VerifyFull verifies every gathered block on every load.
	VerifyFull
)

func (m VerifyMode) String() string {
	switch m {
	case VerifyOff:
		return "off"
	case VerifySampled:
		return "sampled"
	case VerifyFull:
		return "full"
	}
	return fmt.Sprintf("VerifyMode(%d)", int(m))
}

// verifySampleEvery is the sampling stride of VerifySampled: every k-th load
// is fully verified. Deterministic (a shared atomic counter, not a RNG) so
// differential runs replay identically.
const verifySampleEvery = 8

// shouldVerify reports whether the current load operation must CRC-check the
// blocks it gathers.
func (p *PMEM) shouldVerify() bool {
	switch p.st.opt.VerifyReads {
	case VerifyFull:
		return true
	case VerifySampled:
		return p.st.verifyCtr.Add(1)%verifySampleEvery == 0
	default:
		return false
	}
}

// --- quarantine ---

// isQuarantined reports whether (pool, blk) is on the quarantine list. The
// common case — nothing quarantined — is a single atomic load, keeping the
// check invisible on hot read paths.
func (p *PMEM) isQuarantined(pool uint8, blk pmdk.PMID) bool {
	st := p.st
	if st.quarLen.Load() == 0 {
		return false
	}
	st.quarMu.Lock()
	_, ok := st.quar[poolPMID{pool: pool, id: blk}]
	st.quarMu.Unlock()
	return ok
}

// quarSnapshot returns the quarantined addresses as bare block references
// sorted by (pool, offset), for a deterministic persistent encoding. Caller
// holds quarMu.
func quarSnapshot(st *shared) []blockRec {
	refs := make([]blockRec, 0, len(st.quar))
	for a := range st.quar {
		refs = append(refs, blockRec{pool: a.pool, data: a.id})
	}
	slices.SortFunc(refs, func(a, b blockRec) int {
		return cmp.Or(cmp.Compare(a.pool, b.pool), cmp.Compare(a.data, b.data))
	})
	return refs
}

// setQuarantine adds blks to the quarantine, or drops them from it, and
// persists the list when it changed. The list always lives in pool 0's
// hashtable, even on a sharded namespace (homeIdx).
func (p *PMEM) setQuarantine(blks []blockRec, on bool) error {
	st := p.st
	st.quarMu.Lock()
	changed := false
	for i := range blks {
		a := blks[i].addr()
		if _, ok := st.quar[a]; ok == on {
			continue
		}
		changed = true
		if on {
			st.quar[a] = struct{}{}
		} else {
			delete(st.quar, a)
		}
	}
	refs := quarSnapshot(st)
	st.quarLen.Store(int64(len(st.quar)))
	st.quarMu.Unlock()
	if !changed {
		return nil
	}
	return p.publishQuarantine(refs)
}

// unquarantine drops blks from the quarantine: their storage was freed, and
// the allocator may reuse the same PMIDs for healthy new blocks. Best-effort
// on the persistence side — the caller already committed the free, and a
// stale persistent entry can only cause a spurious fail-fast after reopen,
// never a silent wrong read.
func (p *PMEM) unquarantine(blks []blockRec) {
	if p.st.quarLen.Load() != 0 {
		_ = p.setQuarantine(blks, false)
	}
}

// Quarantined returns the currently quarantined pool offsets, sorted by
// (pool, offset). Offsets are pool-relative; on a single-pool store the slice
// is exactly the legacy flat offset list.
func (p *PMEM) Quarantined() []int64 {
	st := p.st
	st.quarMu.Lock()
	refs := quarSnapshot(st)
	st.quarMu.Unlock()
	out := make([]int64, len(refs))
	for i := range refs {
		out[i] = int64(refs[i].data)
	}
	return out
}

// --- scrubber ---

// ScrubReport summarizes one Scrub pass.
type ScrubReport struct {
	// Vars is the number of variables swept.
	Vars int
	// Blocks is the number of blocks whose CRC was verified.
	Blocks int64
	// Bytes is the total encoded bytes verified.
	Bytes int64
	// Corruptions is the number of blocks that failed their CRC this pass.
	Corruptions int
	// Quarantined is the number of blocks newly quarantined this pass (a
	// block already quarantined is skipped, not re-counted).
	Quarantined int
	// Elapsed is the virtual time the pass consumed (device read cost plus
	// rate-limit pacing).
	Elapsed time.Duration
}

// String returns a one-line summary.
func (r ScrubReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "scrub: %d vars, %d blocks, %d bytes in %v", r.Vars, r.Blocks, r.Bytes, r.Elapsed)
	if r.Corruptions > 0 {
		fmt.Fprintf(&b, "; %d corrupt (%d quarantined)", r.Corruptions, r.Quarantined)
	}
	return b.String()
}

// Scrub sweeps every published block of the store, verifying each block's
// CRC32C against the medium and quarantining failures so subsequent reads
// fail fast with ErrCorrupt. The sweep order is deterministic — ids sorted,
// blocks in publish order — and the pass is paced against the virtual clock:
// each block charges its device read cost, and when the handle was mapped
// WithScrubber(rate) the pass additionally sleeps (in virtual time) so its
// throughput never exceeds rate bytes per virtual second. ctx cancels
// between blocks; a canceled pass returns the partial report with ctx's
// error.
//
// Scrub is an explicit maintenance operation: callers drive it from whatever
// cadence they want (a background goroutine, a cron-like loop between
// timesteps). Keeping the trigger in the caller's hands preserves the
// simulator's determinism — virtual time advances only inside explicit API
// calls.
func (p *PMEM) Scrub(ctx context.Context) (ScrubReport, error) {
	var rep ScrubReport
	if !p.st.lay.pooled() {
		return rep, fmt.Errorf("core: Scrub requires the hashtable layout")
	}
	clk := p.comm.Clock()
	start := clk.Now()
	pace := &scrubPacer{ctx: ctx, start: start}
	keys, err := p.Keys()
	if err != nil {
		return rep, err
	}
	in := p.st.ins
	for _, id := range keys {
		if strings.HasSuffix(id, DimsSuffix) || id == quarantineKey {
			continue
		}
		if err := ctx.Err(); err != nil {
			rep.Elapsed = time.Duration(clk.Now() - start)
			return rep, err
		}
		bad, err := p.scrubVar(id, &rep, pace)
		if err != nil {
			rep.Elapsed = time.Duration(clk.Now() - start)
			return rep, err
		}
		rep.Vars++
		if len(bad) > 0 {
			rep.Quarantined += len(bad)
			if err := p.setQuarantine(bad, true); err != nil {
				rep.Elapsed = time.Duration(clk.Now() - start)
				return rep, err
			}
		}
	}
	rep.Elapsed = time.Duration(clk.Now() - start)
	in.scrubPasses.Inc()
	in.scrubLat.Observe(int64(rep.Elapsed))
	return rep, nil
}

// scrubVar verifies every block of one id as one read plan — already-
// quarantined blocks skipped, mismatches reported rather than failing, each
// block charged at the paced scrub rate, cancellable between blocks — and
// returns the newly found corrupt blocks. A pass cut short still counts what
// it finished. The plan's read lock is released before the caller
// quarantines, since setQuarantine persists through the shared hashtable.
// An id deleted since Keys() is an empty sweep, not an error.
func (p *PMEM) scrubVar(id string, rep *ScrubReport, pace *scrubPacer) ([]blockRec, error) {
	pl := readPlan{id: id, consume: consumeCRC, quarantine: quarSkip, verify: verifyReport, sweep: pace}
	err := p.reader().run(&pl)
	if errors.Is(err, ErrNotFound) {
		return nil, nil
	}
	rep.Blocks += pl.blocks
	rep.Bytes += pl.covered
	rep.Corruptions += len(pl.bad)
	p.st.ins.scrubBlocks.Add(pl.blocks)
	p.st.ins.scrubCorrupt.Add(int64(len(pl.bad)))
	return pl.bad, err
}

// scrubPacer is one Scrub pass's state across its per-id plans: the caller's
// cancellation and the progress against the rate limit.
type scrubPacer struct {
	ctx   context.Context
	start time.Duration // virtual time at pass start
	bytes int64         // bytes verified so far
}

// chargeScrub accounts one scrubbed block: the device read cost of streaming
// its bytes from its member pool, then — when a rate limit is configured —
// enough extra virtual time to hold the pass at or under scrubRate bytes per
// virtual second.
func (p *PMEM) chargeScrub(pi int, n int64, pace *scrubPacer) {
	p.chargeMove(sim.Load, []poolBytes{{pi, n}}, 1, 1)
	if rate := p.st.opt.ScrubRate; rate > 0 {
		pace.bytes += n
		p.node.Machine.ChargeScrubPace(p.comm.Clock(), pace.start, pace.bytes, rate)
	}
}

// --- deep check ---

// DeepCheck exhaustively verifies every published block's CRC32C, regardless
// of the handle's verify mode, and reports (but does not quarantine) every
// mismatch with its id, block index, pool offset, and length — and every
// array whose block list lost a dropped block's value range. It is the
// content-level companion of the structural fsck: pmemfsck -deep runs both,
// and the crash-point explorer uses it to prove torn writes cannot escape
// detection. DeepCheck charges no virtual time — it is a diagnostic, and
// keeping it free means the explorer's timing matrices are unchanged by the
// added sweep.
func (p *PMEM) DeepCheck() (*fsck.DeepReport, error) {
	rep := &fsck.DeepReport{}
	if !p.st.lay.pooled() {
		return rep, nil
	}
	keys, err := p.Keys()
	if err != nil {
		return nil, err
	}
	for _, id := range keys {
		if strings.HasSuffix(id, DimsSuffix) || id == quarantineKey {
			continue
		}
		if err := p.deepCheckVar(id, rep); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

func (p *PMEM) deepCheckVar(id string, rep *fsck.DeepReport) error {
	pl := readPlan{id: id, consume: consumeCRC, quarantine: quarIgnore, verify: verifyReport}
	if err := p.reader().run(&pl); err != nil {
		if errors.Is(err, ErrNotFound) {
			return nil // deleted since Keys()
		}
		return err
	}
	rep.Blocks += pl.blocks
	rep.Bytes += pl.covered
	if pl.dropped.poisoned() {
		rep.Unranged = append(rep.Unranged, id)
	}
	for i, b := range pl.bad {
		at := pl.badAt[i]
		if pl.kind.whole() {
			at = -1 // a whole value's single block
		}
		rep.Corrupt = append(rep.Corrupt, fsck.Corruption{ID: id, Block: at, Offset: int64(b.data), Len: b.encLen})
	}
	return nil
}

// VerifyVar fully verifies every block of one id (plus quarantine fail-fast),
// regardless of the handle's verify mode. It backs Array.Verify.
func (p *PMEM) VerifyVar(id string) error {
	p.asyncBarrier()
	pl := readPlan{id: id, consume: consumeCRC, verify: verifyAlways}
	return p.reader().run(&pl)
}
