package core

import (
	"fmt"
	"slices"

	"pmemcpy/internal/checksum"
	"pmemcpy/internal/nd"
	"pmemcpy/internal/posixfs"
	"pmemcpy/internal/serial"
)

// Unified read-path planner and engine — the read-side mirror of the commit
// engine in writeplan.go.
//
// Every read of stored payload bytes — a datum or block load, a view
// (zero-copy or fallback), block statistics, a scrub, a deep check, an
// explicit verify — reduces to the same sequence:
//
//	1. lock     the id's read lock, held from the metadata lookup through the
//	            last byte touched, so no concurrent Compact/Delete can free
//	            what the plan reads;
//	2. resolve  which stored blocks the plan touches: the blocks intersecting
//	            a request (DRAM index; FS scan under the hierarchy layout),
//	            every indexed block, or the blocks the id's metadata record
//	            owns (ownedBlocks);
//	3. gate     the quarantine policy over ALL units: fail | skip | ignore;
//	4. verify   the op's single verification decision, then CRC32C over all
//	            units — so no byte reaches the caller before every selected
//	            block passed; a mismatch fails the plan or is reported;
//	5. consume  each unit is charged as it is consumed: decode+scatter (serial
//	            in publish order, or the worker pool for large disjoint plans),
//	            decode+clone, alias+lease, statistics, or nothing beyond the
//	            CRC verdicts.
//
// Steps 4 and 5 reach a unit's bytes through the engine's one accessor,
// stored: a slice of the pool mapping, or — hierarchy layout — a read of the
// record from the variable's file.
//
// The entry points (store.go, view.go, stats.go, integrity.go) are planners:
// they describe WHAT to read and with which policies as a readPlan value on
// their own stack, and the one readEngine below does the rest. Pool bytes are
// sliced ONLY here and in writeplan.go (enforced by cmd/commitvet); the other
// Slice in this file is InjectCorruption's, a test-only WRITE of stored bytes
// that shares ownedBlocks and nothing else with the engine.
//
// The gather keeps the write engine's determinism rule: workers only run the
// codec's Decode and the nd scatter into disjoint destination elements, the
// coordinator does every clock charge, so virtual time does not depend on
// goroutine scheduling. Stored blocks may overlap and overlap resolves by
// publish order (later blocks shadow earlier ones), so a plan goes to the
// workers only when no two units' regions intersect — the common HPC case of
// disjoint per-rank blocks; anything else runs serially in publish order.
// "Persistent Memory I/O Primitives" (van Renen et al.) measures why the
// worker pool exists: one thread cannot saturate PMEM read bandwidth, a
// handful sized to the DIMM count can.

// readUnit is one stored block a plan touches. Request plans also carry the
// block's intersection with the request, in absolute array coordinates.
// Under the hierarchy layout src.data is the record's offset in the
// variable's file and src.crc is unset (the file framing stores none).
type readUnit struct {
	src            blockRec
	isOffs, isCnts []uint64
	bytes          int64 // bytes the unit moves: the intersection, or encLen
}

// quarPolicy is what the gate does with a quarantined unit.
type quarPolicy uint8

const (
	quarFail   quarPolicy = iota // the plan fails with ErrCorrupt (every load)
	quarSkip                     // the unit drops out of the plan (Scrub)
	quarIgnore                   // no gate (DeepCheck)
)

// verifyPolicy is how the plan's one verification decision is taken and what
// a CRC mismatch does.
type verifyPolicy uint8

const (
	verifyByMode verifyPolicy = iota // the handle's mode — the op's one shouldVerify draw; mismatch fails
	verifyAlways                     // regardless of mode; mismatch fails (VerifyVar)
	verifyReport                     // regardless of mode; mismatches land in readPlan.bad (Scrub, DeepCheck)
)

// consumeKind is what happens to the verified bytes. Two things follow from
// it and are therefore not separate knobs. What the plan resolves: scatter and
// alias read the blocks intersecting a request, in publish order; stats reads
// every indexed block; clone and CRC read what the id's metadata record owns
// — the whole value's block, every block. And the charge: scatter streams
// each unit (or stripes the worker wave), clone streams the value, alias and
// header statistics pay one device latency, CRC plans pay the scrub-paced
// read when readPlan.sweep is set and nothing otherwise.
type consumeKind uint8

const (
	consumeScatter consumeKind = iota // decode + scatter into dst
	consumeAlias                      // lease + alias the mapped bytes; degrades to scatter into a fresh buffer
	consumeStats                      // per-block value range (stats.go)
	consumeClone                      // decode + private copy (whole values)
	consumeCRC                        // the verify stage's verdicts are the result
)

// ofRequest reports whether the plan reads a requested region.
func (k consumeKind) ofRequest() bool { return k == consumeScatter || k == consumeAlias }

// readPlan is one planned read: the planner's inputs and the engine's results.
// The zero policies are a load's — quarantined blocks fail, the handle's
// verify mode decides. Plans live on the planner's stack; the engine retains
// nothing of one, and its working set (the resolved units) is a local of run,
// so a load adds no heap object for being planned.
type readPlan struct {
	id         string
	consume    consumeKind
	quarantine quarPolicy
	verify     verifyPolicy

	// Scatter/alias: the requested region and the scatter destination (nil on
	// view plans — the engine allocates one only when the alias degrades).
	offs, counts []uint64
	dst          []byte

	// Scrub: the pass's cancellation and paced charge, both applied between
	// blocks. Nil on every other plan.
	sweep *scrubPacer

	// Resolved by the engine.
	kind          recordKind    // record plans: what the record turned out to be
	entry         *cacheEntry   // request/stats plans: the index the plan ran against ...
	ver           uint64        // ... and the version it was read at
	file          *posixfs.File // hierarchy layout: the id's open file, closed by run
	esize         int
	need, covered int64 // request bytes; sum of the (post-gate) units' bytes

	// Results.
	blocks   int64         // units that passed the gate (a reporting sweep: that it finished)
	parallel bool          // the worker pool ran the scatter
	bad      []badBlock    // verifyReport: units that failed their CRC
	datum    *serial.Datum // consumeClone
	view     *BlockView    // consumeAlias
	stats    []BlockStats  // consumeStats (the memoized slice on an index hit: copy before returning)
}

// badBlock is one reported CRC mismatch: the unit's position in the plan and
// its block record.
type badBlock struct {
	idx int
	rec blockRec
}

// readEngine executes readPlans. Like the commit engine it is a view over the
// handle and carries no state of its own.
type readEngine struct {
	p *PMEM
}

// reader returns the handle's read engine.
func (p *PMEM) reader() readEngine { return readEngine{p: p} }

// run executes a plan in the canonical order.
func (e readEngine) run(pl *readPlan) error {
	p := e.p
	lock := p.varLock(pl.id)
	lock.RLock()
	defer lock.RUnlock()
	// Single-block plans (every whole-value load) resolve into this frame.
	var one [1]readUnit
	units, done, err := e.resolve(pl, one[:0])
	if pl.file != nil {
		defer pl.file.Close()
	}
	if done || err != nil {
		return err
	}
	for i := range units {
		pl.covered += units[i].bytes
	}
	if pl.consume.ofRequest() && pl.covered < pl.need {
		return fmt.Errorf("core: request on %q only covered %d of %d bytes: %w",
			pl.id, pl.covered, pl.need, ErrNotFound)
	}
	// The op's one verification decision. Hierarchy records carry no published
	// CRC, so there is nothing to verify them against and they draw no
	// sampling tick.
	verify := p.st.opt.Layout == LayoutHashtable && (pl.verify != verifyByMode || p.shouldVerify())
	if units, err = e.gate(pl, units); err != nil {
		return err
	}
	pl.blocks = int64(len(units))
	if verify {
		if err := e.verify(pl, units); err != nil {
			return err
		}
	}
	return e.consume(pl, units, verify)
}

// stored returns a unit's stored bytes: the block's slice of its pool's
// mapping — the only read-side pool.Slice — or, under the hierarchy layout,
// the record read from the variable's file into DRAM through the FS model.
// Hierarchy plans call it once per unit, as the unit is consumed, so a gather
// holds one record at a time.
func (e readEngine) stored(file *posixfs.File, u *readUnit) ([]byte, error) {
	if file != nil {
		buf := make([]byte, u.src.encLen)
		_, err := file.ReadAt(e.p.comm.Clock(), buf, int64(u.src.data))
		return buf, err
	}
	return e.p.poolOf(u.src.pool).Slice(u.src.data, u.src.encLen)
}

// resolve returns the plan's units, appended to scratch. done reports a plan
// that is already complete: a memoized statistics hit, or a record plan on a
// layout whose values reference no blocks.
func (e readEngine) resolve(pl *readPlan, scratch []readUnit) (units []readUnit, done bool, err error) {
	p := e.p
	switch pl.consume {
	case consumeClone, consumeCRC:
		return e.resolveRecord(pl, scratch)
	}
	var rec dimsRecord
	if p.st.opt.Layout == LayoutHierarchy {
		if rec, err = p.loadDimsLocked(pl.id); err != nil {
			return nil, false, err
		}
	} else {
		if pl.entry, pl.ver, err = p.blockIndex(pl.id); err != nil {
			return nil, false, err
		}
		rec = pl.entry.dims
	}
	if pl.consume == consumeStats {
		if !pl.entry.hasBlocks {
			return nil, false, fmt.Errorf("core: %q has no stored blocks: %w", pl.id, ErrNotFound)
		}
		if pl.stats = pl.entry.stats; pl.stats != nil {
			return nil, true, nil
		}
		return wholeBlocks(scratch, pl.entry.blocks), false, nil
	}
	if err := nd.CheckBlock(rec.dims, pl.offs, pl.counts); err != nil {
		return nil, false, err
	}
	pl.esize = rec.dtype.Size()
	pl.need = int64(nd.Size(pl.counts)) * int64(pl.esize)
	if pl.consume == consumeScatter && int64(len(pl.dst)) < pl.need {
		return nil, false, fmt.Errorf("core: dst %d bytes, block needs %d: %w", len(pl.dst), pl.need, ErrOutOfBounds)
	}
	if p.st.opt.Layout == LayoutHierarchy {
		if pl.file, err = p.st.hier.open(p.comm.Clock(), pl.id); err != nil {
			return nil, false, err
		}
		units, err = scanRecords(p.comm.Clock(), pl.file, pl.offs, pl.counts, pl.esize)
		return units, false, err
	}
	if !pl.entry.hasBlocks {
		return nil, false, fmt.Errorf("core: id %q has no stored blocks: %w", pl.id, ErrNotFound)
	}
	return planGather(pl.entry, pl.offs, pl.counts, pl.esize), false, nil
}

// resolveRecord resolves a clone or CRC plan from the id's metadata record.
func (e readEngine) resolveRecord(pl *readPlan, scratch []readUnit) ([]readUnit, bool, error) {
	p := e.p
	if p.st.opt.Layout == LayoutHierarchy && pl.consume == consumeClone {
		// A hierarchy value is its file's bytes, not a reference to a block:
		// a whole-value load reads the file as one record.
		var err error
		if pl.file, err = p.st.hier.open(p.comm.Clock(), pl.id); err != nil {
			return nil, false, err
		}
		n := pl.file.Size()
		return append(scratch, readUnit{src: blockRec{encLen: n}, bytes: n}), false, nil
	}
	raw, ok, err := p.getValue(pl.id)
	if err != nil {
		return nil, false, err
	}
	if !ok {
		return nil, false, fmt.Errorf("core: id %q: %w", pl.id, ErrNotFound)
	}
	if p.st.opt.Layout == LayoutHierarchy {
		return nil, true, nil // no block references to sweep
	}
	var one [1]blockRec
	blocks, kind, err := p.ownedBlocks(pl.id, raw, one[:0])
	if err != nil {
		return nil, false, err
	}
	pl.kind = kind
	if pl.consume == consumeClone && kind != recValueRef {
		// The id exists but holds something else (a block list, raw
		// metadata): a kind mismatch, not a missing id.
		return nil, false, fmt.Errorf("core: id %q does not hold a datum: %w", pl.id, ErrTypeMismatch)
	}
	return wholeBlocks(scratch, blocks), false, nil
}

// wholeBlocks appends one whole-block unit per block record to units.
func wholeBlocks(units []readUnit, blocks []blockRec) []readUnit {
	units = slices.Grow(units, len(blocks))
	for _, b := range blocks {
		units = append(units, readUnit{src: b, bytes: b.encLen})
	}
	return units
}

// gate applies the plan's quarantine policy to every unit before any byte is
// read. Units are distinct by construction (one per block record), so no
// dedup is needed, and with an empty quarantine the gate is one atomic load.
func (e readEngine) gate(pl *readPlan, units []readUnit) ([]readUnit, error) {
	p := e.p
	if pl.quarantine == quarIgnore || p.st.quarLen.Load() == 0 {
		return units, nil
	}
	kept := units[:0]
	for _, u := range units {
		if p.isQuarantined(u.src.pool, u.src.data) {
			if pl.quarantine == quarFail {
				return nil, fmt.Errorf("core: id %q block at pool offset %d is quarantined: %w",
					pl.id, int64(u.src.data), ErrCorrupt)
			}
			pl.covered -= u.bytes
			continue
		}
		kept = append(kept, u)
	}
	return kept, nil
}

// verify recomputes every unit's CRC32C against its published one — the only
// read-side checksum compare. A load's verify fails on the first mismatch,
// before the consume step has produced a byte, and charges no virtual time:
// the checksum pass streams the same bytes the consume step is about to move,
// so its traffic overlaps in the model. A reporting sweep (Scrub, DeepCheck)
// has no consume step to protect; it collects mismatches in pl.bad, counts
// the blocks it finished — Scrub's can be canceled between any two, and each
// pays the paced scrub read — and leaves the rest to its planner.
func (e readEngine) verify(pl *readPlan, units []readUnit) error {
	p := e.p
	report := pl.verify == verifyReport
	if report {
		pl.blocks, pl.covered = 0, 0
	}
	for i := range units {
		u := &units[i]
		if pl.sweep != nil {
			if err := pl.sweep.ctx.Err(); err != nil {
				return err
			}
		}
		src, err := e.stored(pl.file, u)
		if err != nil {
			return err
		}
		got := checksum.Sum(src)
		intact := got == u.src.crc
		if report {
			if pl.sweep != nil {
				p.chargeScrub(int(u.src.pool), u.bytes, pl.sweep)
			}
			pl.blocks++
			pl.covered += u.bytes
			if !intact {
				pl.bad = append(pl.bad, badBlock{idx: i, rec: u.src})
			}
			continue
		}
		p.st.ins.verifyBlocks.Inc()
		if !intact {
			p.st.ins.verifyFails.Inc()
			return fmt.Errorf("core: id %q block at pool offset %d (%d bytes): crc %#08x, stored %#08x: %w",
				pl.id, int64(u.src.data), len(src), got, u.src.crc, ErrCorrupt)
		}
	}
	return nil
}

// consume charges and delivers the verified units.
func (e readEngine) consume(pl *readPlan, units []readUnit, verified bool) error {
	p := e.p
	_, decPasses := p.codec.CostProfile()
	switch pl.consume {
	case consumeAlias:
		if src, ok := e.aliasRange(pl, units, verified); ok {
			// The lease is stamped here, under the id's read lock, so it is
			// ordered against any concurrent free of the id's blocks.
			epoch := p.st.openLease()
			p.chargeReadLatency()
			p.st.ins.viewZero.Inc()
			pl.view = p.newView(pl.id, src, true, epoch)
			return nil
		}
		pl.dst = make([]byte, pl.need)
		if err := e.scatter(pl, units, decPasses); err != nil {
			return err
		}
		p.st.ins.viewFallback.Inc()
		pl.view = p.newView(pl.id, pl.dst, false, 0)
		return nil
	case consumeScatter:
		return e.scatter(pl, units, decPasses)
	case consumeClone:
		src, err := e.stored(pl.file, &units[0])
		if err != nil {
			return err
		}
		if len(src) < 1 {
			return fmt.Errorf("core: empty value for %q", pl.id)
		}
		e.chargeWave(units[:1], decPasses, 1)
		// The 1-byte type prefix lets non-self-describing codecs decode.
		d, err := p.codec.Decode(src[1:], &serial.Datum{Type: serial.DType(src[0])})
		if err != nil {
			return err
		}
		pl.datum = d.Clone() // the caller's datum must not alias the pool
		return nil
	case consumeStats:
		pl.stats = make([]BlockStats, len(units))
		for i := range units {
			src, err := e.stored(pl.file, &units[i])
			if err != nil {
				return err
			}
			if pl.stats[i], err = p.blockStats(units[i].src, src, pl.entry.dims.dtype); err != nil {
				return err
			}
		}
		return nil
	default: // consumeCRC: the verify stage did everything
		return nil
	}
}

// aliasRange decides zero-copy eligibility and, when eligible, returns the
// aliasing sub-slice of the stored block: exactly one unit covering the whole
// request, an identity codec (stored bytes are payload bytes), a contiguous
// sub-range of the block (full extent in every dimension but the outermost),
// and the load not selected for CRC verification. (A quarantined block never
// gets here: the gate failed the plan.)
func (e readEngine) aliasRange(pl *readPlan, units []readUnit, verified bool) ([]byte, bool) {
	if verified || len(units) != 1 || units[0].bytes != pl.need || e.p.st.opt.Layout != LayoutHashtable {
		return nil, false
	}
	ie, ok := e.p.codec.(serial.IdentityEncoder)
	if !ok || !ie.IdentityEncode() {
		return nil, false
	}
	// Contiguity: the intersection may trim only dim 0; inner dims must span
	// the stored block exactly, or the requested elements are strided through
	// the block and cannot alias as one slice.
	u := &units[0]
	b := u.src
	rowBytes := int64(b.dtype.Size())
	for d := 1; d < len(b.counts); d++ {
		if u.isOffs[d] != b.offs[d] || u.isCnts[d] != b.counts[d] {
			return nil, false
		}
		rowBytes *= int64(b.counts[d])
	}
	var start int64
	if len(b.offs) > 0 {
		start = int64(u.isOffs[0]-b.offs[0]) * rowBytes
	}
	if start+pl.need > b.encLen {
		return nil, false // stored block shorter than its shape claims
	}
	src, err := e.stored(pl.file, u)
	if err != nil {
		return nil, false // the fallback's read reports it
	}
	return src[start : start+pl.need : start+pl.need], true
}

// gather is what a scatter wave's jobs share: the engine and the request,
// by value, so the plan itself stays on its planner's stack.
type gather struct {
	e            readEngine
	file         *posixfs.File
	dst          []byte
	offs, counts []uint64
	esize        int
}

// scatter decodes every unit and places its intersection into pl.dst, wave by
// wave on the wave runner (wave.go), each wave charged once as it completes:
// a wave per unit on the caller's goroutine, in publish order — or, for large
// plans whose units are pairwise disjoint, ONE wave on the worker pool.
func (e readEngine) scatter(pl *readPlan, units []readUnit, decPasses float64) error {
	p := e.p
	pl.parallel = p.readParallelEligible(pl.covered) && !unitsOverlap(units)
	workers, step := 1, 1
	if pl.parallel {
		workers = p.st.opt.ReadParallelism
	}
	jobs := splitUnits(units, workers)
	workers = min(workers, len(jobs))
	if pl.parallel {
		step = len(jobs)
		p.st.parallelReads.Add(1)
		p.st.parallelReadJobs.Add(int64(len(jobs)))
		if in := p.st.ins; in.enabled {
			in.gatherDepth.Observe(int64(len(jobs)))
			for i := range jobs {
				in.gatherJobBytes.Observe(jobs[i].bytes)
			}
		}
	}
	g := gather{e: e, file: pl.file, dst: pl.dst, offs: pl.offs, counts: pl.counts, esize: pl.esize}
	for lo := 0; lo < len(jobs); lo += step {
		wave := jobs[lo : lo+step]
		if err := runWave(workers, g, wave, gather.place); err != nil {
			return err
		}
		e.chargeWave(wave, decPasses, workers)
	}
	return nil
}

// chargeWave accounts the units `workers` goroutines just streamed: the bytes
// they moved out of their pools' mappings, or — under the hierarchy layout,
// whose bytes the FS model already charged for — the staged decode of each
// record.
func (e readEngine) chargeWave(wave []readUnit, decPasses float64, workers int) {
	p := e.p
	if p.st.opt.Layout == LayoutHierarchy {
		m := p.node.Machine
		for i := range wave {
			m.ChargePasses(p.comm.Clock(), wave[i].src.encLen, decPasses, m.Config().DeserializeBPS, p.comm.Size())
		}
		return
	}
	var buf [8]poolBytes
	moved := buf[:0]
	for i := range wave {
		moved = append(moved, poolBytes{int(wave[i].src.pool), wave[i].bytes})
	}
	p.chargeMove(moveLoad, moved, decPasses, workers)
}

// place decodes one unit's stored block (zero-copy for the default codec: the
// payload aliases mapped PMEM) and scatters its intersection into the
// request's destination. It is the only code a scatter worker runs: no clock
// (the hierarchy layout's file read, serial by construction, aside), no
// allocator, no device bookkeeping.
func (g gather) place(u *readUnit) error {
	src, err := g.e.stored(g.file, u)
	if err != nil {
		return err
	}
	d, err := g.e.p.codec.Decode(src, &serial.Datum{Type: u.src.dtype, Dims: u.src.counts})
	if err != nil {
		return err
	}
	return nd.PlaceIntersection(g.dst, g.offs, g.counts, d.Payload, u.src.offs, u.src.counts,
		u.isOffs, u.isCnts, g.esize)
}

// planGather intersects the request (offs, counts) with the stored blocks,
// walking the start-sorted extent index and emitting units in publish order.
// Their bytes may sum past the request size when stored blocks overlap.
func planGather(e *cacheEntry, offs, counts []uint64, esize int) []readUnit {
	var hits []int
	if len(offs) > 0 {
		lo, hi := offs[0], offs[0]+counts[0]
		for _, bi := range e.byStart {
			b := e.blocks[bi]
			if len(b.offs) == 0 {
				continue
			}
			if b.offs[0] >= hi {
				// Sorted by start: every later block begins at or past the
				// request's end in dim 0 and cannot intersect.
				break
			}
			if b.offs[0]+b.counts[0] <= lo {
				continue
			}
			hits = append(hits, bi)
		}
		// Publish order decides shadowing, so restore it.
		sortInts(hits)
	} else {
		for i := range e.blocks {
			hits = append(hits, i)
		}
	}
	var units []readUnit
	for _, bi := range hits {
		b := e.blocks[bi]
		isOffs, isCnts, ok := nd.Intersect(offs, counts, b.offs, b.counts)
		if !ok {
			continue
		}
		n := int64(nd.Size(isCnts)) * int64(esize)
		units = append(units, readUnit{src: b, isOffs: isOffs, isCnts: isCnts, bytes: n})
	}
	return units
}

func sortInts(v []int) {
	// Insertion sort: hit lists are short and nearly sorted already.
	for i := 1; i < len(v); i++ {
		for j := i; j > 0 && v[j] < v[j-1]; j-- {
			v[j], v[j-1] = v[j-1], v[j]
		}
	}
}

// unitsOverlap reports whether any two units' regions intersect, in which
// case publish order matters and the plan is not safe to execute concurrently.
func unitsOverlap(units []readUnit) bool {
	for i := 0; i < len(units); i++ {
		for j := i + 1; j < len(units); j++ {
			if _, _, ok := nd.Intersect(units[i].isOffs, units[i].isCnts,
				units[j].isOffs, units[j].isCnts); ok {
				return true
			}
		}
	}
	return false
}

// splitUnits returns a copy of plan — the scatter's own, so the plan's units
// stay in run's frame — with large units cut along dim 0 of their
// intersection until there are at least want of them, so even a single huge
// stored block fans out over the worker pool. Sub-units of one block never
// overlap, preserving the planner's no-overlap guarantee.
func splitUnits(plan []readUnit, want int) []readUnit {
	units := append(make([]readUnit, 0, max(len(plan), want)), plan...)
	for len(units) < want {
		// Split the largest splittable unit in two.
		best := -1
		for i, u := range units {
			if len(u.isCnts) == 0 || u.isCnts[0] < 2 {
				continue
			}
			if best < 0 || u.bytes > units[best].bytes {
				best = i
			}
		}
		if best < 0 {
			break
		}
		u := units[best]
		rows := u.isCnts[0]
		half := rows / 2
		rowBytes := u.bytes / int64(rows)
		lo, hi := u, u
		lo.isOffs = append([]uint64(nil), u.isOffs...)
		lo.isCnts = append([]uint64(nil), u.isCnts...)
		hi.isOffs = append([]uint64(nil), u.isOffs...)
		hi.isCnts = append([]uint64(nil), u.isCnts...)
		lo.isCnts[0] = half
		lo.bytes = rowBytes * int64(half)
		hi.isOffs[0] += half
		hi.isCnts[0] = rows - half
		hi.bytes = u.bytes - lo.bytes
		units[best] = lo
		units = append(units, hi)
	}
	return units
}

// readParallelEligible reports whether a gather of total intersection bytes
// should take the parallel path.
func (p *PMEM) readParallelEligible(total int64) bool {
	return p.st.opt.ReadParallelism > 1 &&
		!p.st.opt.StagedSerialization && // staging ablation models the serial related work
		p.st.opt.Layout == LayoutHashtable &&
		total >= parallelMinBytes
}

// recordKind classifies a metadata record by what storage it owns.
type recordKind uint8

const (
	recRaw       recordKind = iota // raw metadata (dims, quarantine list): owns nothing
	recBlockList                   // an array's block list
	recValueRef                    // a whole value's pointer record
)

func (k recordKind) String() string {
	return [...]string{"raw record", "block list", "value ref"}[k]
}

// ownedBlocks decodes the payload blocks the metadata record raw of id owns:
// a block list's blocks, a value ref's single block (always in the id's home
// pool), or nothing for raw metadata. It is the one place record tags are
// dispatched. buf is optional scratch so a value ref resolves without a heap
// allocation.
func (p *PMEM) ownedBlocks(id string, raw []byte, buf []blockRec) ([]blockRec, recordKind, error) {
	switch {
	case len(raw) > 0 && isBlockListTag(raw[0]):
		blocks, err := decodeBlockList(raw)
		return blocks, recBlockList, err
	case len(raw) == valueRefLen && raw[0] == valueRefTag:
		blk, n, crc, err := decodeValueRef(raw)
		if err != nil {
			return nil, recValueRef, err
		}
		return append(buf[:0], blockRec{pool: uint8(p.homeIdx(id)), data: blk, encLen: n, crc: crc}), recValueRef, nil
	}
	return nil, recRaw, nil
}

// InjectCorruption simulates silent media corruption: it XORs mask into n
// consecutive stored bytes of one published block of id, without touching the
// block's recorded CRC, virtual clock, or persist tracking — exactly what a
// failing cell or a misdirected write looks like to software. block selects
// which block of an array's block list to damage; block < 0 targets a whole
// value's single block (scalars, strings, whole-slice stores). off is reduced
// modulo the block's encoded length, so generators can aim anywhere without
// knowing block sizes; n <= 0 damages from off to the end of the block. It
// returns the pool offset of the first damaged byte and how many bytes were
// damaged.
//
// This is the injection point behind pmemfsck -deep -corrupt and the
// corruption test battery. It is deliberately not reachable from the pio
// surface, and deliberately not a read plan: it WRITES stored bytes, under
// the id's write lock so the damage is ordered against every reader of the
// block. It lives here because this file is where pool bytes are sliced.
func (p *PMEM) InjectCorruption(id string, block int, off, n int64, mask byte) (int64, int64, error) {
	if p.st.opt.Layout != LayoutHashtable {
		return 0, 0, fmt.Errorf("core: InjectCorruption requires the hashtable layout")
	}
	if mask == 0 {
		return 0, 0, fmt.Errorf("core: InjectCorruption with mask 0 is a no-op")
	}
	if off < 0 {
		return 0, 0, fmt.Errorf("core: negative offset %d", off)
	}
	lock := p.varLock(id)
	lock.Lock()
	defer lock.Unlock()
	raw, ok, err := p.getValue(id)
	if err != nil {
		return 0, 0, err
	}
	if !ok {
		return 0, 0, fmt.Errorf("core: id %q: %w", id, ErrNotFound)
	}
	blocks, kind, err := p.ownedBlocks(id, raw, nil)
	if err != nil {
		return 0, 0, err
	}
	if kind == recValueRef && block < 0 {
		block = 0
	} else if kind != recBlockList || block < 0 || block >= len(blocks) {
		return 0, 0, fmt.Errorf("core: id %q (%v, %d blocks) has no block %d", id, kind, len(blocks), block)
	}
	b := blocks[block]
	src, err := p.poolOf(b.pool).Slice(b.data, b.encLen)
	if err != nil {
		return 0, 0, err
	}
	off %= b.encLen
	if n <= 0 || off+n > b.encLen {
		n = b.encLen - off
	}
	for i := off; i < off+n; i++ {
		src[i] ^= mask
	}
	// The block index caches decoded characteristics, not payload bytes, so
	// no invalidation is needed: readers will stream the damaged bytes.
	return int64(b.data) + off, n, nil
}
