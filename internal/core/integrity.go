package core

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
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
// — the value-ref record for whole values, the block-list record for array
// blocks. Three consumers recompute it, all as read plans whose quarantine
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
// re-reading bad media. Delete and Compact drop freed PMIDs from the list,
// since the allocator may hand the same storage to a healthy new block.

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

// quarantineKey is the reserved metadata key holding the persistent
// quarantine list. It sorts before every user id that does not itself start
// with '#', keeping Keys() output stable, and decodeValueRef/decodeBlockList
// reject its tag so it can never be misread as user data.
const quarantineKey = "#quarantine"

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

// poolPMID is a fully qualified block address on a sharded namespace: PMIDs
// are pool-relative offsets, so blocks from different member pools can carry
// the same PMID and the quarantine must key on the pair.
type poolPMID struct {
	pool uint8
	id   pmdk.PMID
}

// encodeQuarantine writes the persistent quarantine list. Like block lists,
// the encoding is content-driven: the pooled form (9-byte entries with a pool
// prefix) is used exactly when an entry lives outside pool 0, so single-pool
// stores keep their legacy 8-byte-entry records.
func encodeQuarantine(ids []poolPMID) []byte {
	pooled := false
	for _, id := range ids {
		if id.pool != 0 {
			pooled = true
			break
		}
	}
	if !pooled {
		buf := make([]byte, 5+8*len(ids))
		buf[0] = quarantineTag
		binary.LittleEndian.PutUint32(buf[1:], uint32(len(ids)))
		for i, id := range ids {
			binary.LittleEndian.PutUint64(buf[5+8*i:], uint64(id.id))
		}
		return buf
	}
	buf := make([]byte, 5+9*len(ids))
	buf[0] = quarantinePooledTag
	binary.LittleEndian.PutUint32(buf[1:], uint32(len(ids)))
	for i, id := range ids {
		buf[5+9*i] = id.pool
		binary.LittleEndian.PutUint64(buf[5+9*i+1:], uint64(id.id))
	}
	return buf
}

func decodeQuarantine(raw []byte) ([]poolPMID, error) {
	if len(raw) < 5 || (raw[0] != quarantineTag && raw[0] != quarantinePooledTag) {
		return nil, fmt.Errorf("core: not a quarantine record")
	}
	entry := 8
	if raw[0] == quarantinePooledTag {
		entry = 9
	}
	n := binary.LittleEndian.Uint32(raw[1:])
	if int64(n) > int64(len(raw)-5)/int64(entry) {
		return nil, fmt.Errorf("core: quarantine record truncated")
	}
	out := make([]poolPMID, n)
	for i := range out {
		pos := 5 + entry*i
		if entry == 9 {
			out[i].pool = raw[pos]
			pos++
		}
		out[i].id = pmdk.PMID(binary.LittleEndian.Uint64(raw[pos:]))
	}
	return out, nil
}

// loadQuarantine populates the DRAM mirror of the persistent quarantine list
// at open time, so fail-fast reads work from the first op after a reopen.
func (st *shared) loadQuarantine(clk *sim.Clock) error {
	raw, ok, err := st.hts[0].Get(clk, []byte(quarantineKey))
	if err != nil || !ok {
		return err
	}
	ids, err := decodeQuarantine(raw)
	if err != nil {
		return err
	}
	for _, id := range ids {
		st.quar[id] = struct{}{}
	}
	st.quarLen.Store(int64(len(st.quar)))
	return nil
}

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

// quarSnapshot returns the quarantined addresses sorted by (pool, offset),
// for a deterministic persistent encoding. Caller holds quarMu.
func quarSnapshot(st *shared) []poolPMID {
	ids := make([]poolPMID, 0, len(st.quar))
	for id := range st.quar {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(a, b int) bool {
		if ids[a].pool != ids[b].pool {
			return ids[a].pool < ids[b].pool
		}
		return ids[a].id < ids[b].id
	})
	return ids
}

// quarantineBlocks adds blks to the quarantine and persists the updated list.
// The list always lives in pool 0's hashtable, even on a sharded namespace:
// '#'-prefixed reserved keys route there by construction.
func (p *PMEM) quarantineBlocks(blks []poolPMID) error {
	st := p.st
	st.quarMu.Lock()
	changed := false
	for _, b := range blks {
		if _, ok := st.quar[b]; !ok {
			st.quar[b] = struct{}{}
			changed = true
		}
	}
	ids := quarSnapshot(st)
	st.quarLen.Store(int64(len(st.quar)))
	st.quarMu.Unlock()
	if !changed || st.hier != nil {
		return nil
	}
	return p.engine().publishQuarantine(ids)
}

// unquarantine drops blks from the quarantine: their storage was freed, and
// the allocator may reuse the same PMIDs for healthy new blocks. Best-effort
// on the persistence side — the caller already committed the free, and a
// stale persistent entry can only cause a spurious fail-fast after reopen,
// never a silent wrong read.
func (p *PMEM) unquarantine(blks []poolPMID) {
	st := p.st
	if st.quarLen.Load() == 0 {
		return
	}
	st.quarMu.Lock()
	changed := false
	for _, b := range blks {
		if _, ok := st.quar[b]; ok {
			delete(st.quar, b)
			changed = true
		}
	}
	ids := quarSnapshot(st)
	st.quarLen.Store(int64(len(st.quar)))
	st.quarMu.Unlock()
	if !changed || st.hier != nil {
		return
	}
	_ = p.engine().publishQuarantine(ids)
}

// Quarantined returns the currently quarantined pool offsets, sorted by
// (pool, offset). Offsets are pool-relative; on a single-pool store the slice
// is exactly the legacy flat offset list.
func (p *PMEM) Quarantined() []int64 {
	st := p.st
	st.quarMu.Lock()
	ids := quarSnapshot(st)
	st.quarMu.Unlock()
	out := make([]int64, len(ids))
	for i, id := range ids {
		out[i] = int64(id.id)
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
	if p.st.opt.Layout != LayoutHashtable {
		return rep, fmt.Errorf("core: Scrub requires the hashtable layout")
	}
	clk := p.comm.Clock()
	start := clk.Now()
	pace := &scrubPacer{ctx: ctx, start: int64(start)}
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
			if err := p.quarantineBlocks(bad); err != nil {
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
// quarantines, since quarantineBlocks persists through the shared hashtable.
// An id deleted since Keys() is an empty sweep, not an error.
func (p *PMEM) scrubVar(id string, rep *ScrubReport, pace *scrubPacer) ([]poolPMID, error) {
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
	bad := make([]poolPMID, len(pl.bad))
	for i, b := range pl.bad {
		bad[i] = poolPMID{pool: b.rec.pool, id: b.rec.data}
	}
	return bad, err
}

// scrubPacer is one Scrub pass's state across its per-id plans: the caller's
// cancellation and the progress against the rate limit.
type scrubPacer struct {
	ctx   context.Context
	start int64 // virtual ns at pass start
	bytes int64 // bytes verified so far
}

// chargeScrub accounts one scrubbed block: the device read cost of streaming
// its bytes from its member pool, then — when a rate limit is configured —
// enough extra virtual time to hold the pass at or under scrubRate bytes per
// virtual second.
func (p *PMEM) chargeScrub(pi int, n int64, pace *scrubPacer) {
	p.chargeMove(moveLoad, []poolBytes{{pi, n}}, 1, 1)
	rate := p.st.opt.ScrubRate
	if rate <= 0 {
		return
	}
	clk := p.comm.Clock()
	pace.bytes += n
	target := time.Duration(float64(pace.bytes) / float64(rate) * float64(time.Second))
	since := time.Duration(int64(clk.Now()) - pace.start)
	if target > since {
		clk.Advance(target - since)
	}
}

// --- deep check ---

// DeepCheck exhaustively verifies every published block's CRC32C, regardless
// of the handle's verify mode, and reports (but does not quarantine) every
// mismatch with its id, block index, pool offset, and length. It is the
// content-level companion of the structural fsck: pmemfsck -deep runs both,
// and the crash-point explorer uses it to prove torn writes cannot escape
// detection. DeepCheck charges no virtual time — it is a diagnostic, and
// keeping it free means the explorer's timing matrices are unchanged by the
// added sweep.
func (p *PMEM) DeepCheck() (*fsck.DeepReport, error) {
	rep := &fsck.DeepReport{}
	if p.st.opt.Layout != LayoutHashtable {
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
	for _, b := range pl.bad {
		if pl.kind == recValueRef {
			b.idx = -1 // a whole value's single block
		}
		rep.Corrupt = append(rep.Corrupt, fsck.Corruption{
			ID: id, Block: b.idx, Offset: int64(b.rec.data), Len: b.rec.encLen,
		})
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
