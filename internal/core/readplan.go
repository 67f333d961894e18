package core

import (
	"fmt"
	"sort"

	"pmemcpy/internal/bytesview"
	"pmemcpy/internal/checksum"
	"pmemcpy/internal/nd"
	"pmemcpy/internal/pmdk"
	"pmemcpy/internal/serial"
	"pmemcpy/internal/sim"
)

// Unified read-path planner and engine — the read-side mirror of the commit
// engine in writeplan.go.
//
// Every read of stored payload bytes — a datum or block load, a view
// (zero-copy or fallback), block statistics, a scrub, a deep check, an
// explicit verify — reduces to the same sequence:
//
//	1. lock     the id's read lock, held from the metadata lookup through the
//	            last byte touched, so no concurrent overwrite or Delete can free
//	            what the plan reads;
//	2. resolve  which stored blocks the plan touches, asked of the layout
//	            (meta.go): the blocks intersecting a request, every indexed
//	            block, or the blocks the id's metadata record owns;
//	3. gate     the quarantine policy over ALL units: fail | skip | ignore;
//	4. verify   the op's single verification decision, then CRC32C over all
//	            units — so no byte reaches the caller before every selected
//	            block passed; a mismatch fails the plan or is reported;
//	5. consume  each unit is charged as it is consumed: decode+scatter (serial
//	            in publish order, or the worker pool for large disjoint plans),
//	            decode+clone, alias+lease, statistics, or nothing beyond the
//	            CRC verdicts.
//
// Steps 4 and 5 reach a unit's bytes through the layout's one accessor,
// stored — on the pool layout, below, a slice of the pool mapping.
//
// The entry points (store.go, view.go, stats.go, integrity.go) are planners:
// they describe WHAT to read and with which policies as a readPlan value on
// their own stack, and the one readEngine below does the rest. Pool bytes are
// sliced ONLY here and in writeplan.go (enforced by cmd/commitvet); the other
// Slice in this file is InjectCorruption's, a test-only WRITE of stored bytes
// that shares decodeRecord and nothing else with the engine.
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
// Under the hierarchy layout src.data is the payload's offset in file, the
// variable's open file, and src.crc is unset (the file framing stores none).
type readUnit struct {
	src            blockRec
	isOffs, isCnts []uint64
	bytes          int64 // bytes the unit moves: the intersection, or encLen
	file           *varFile
}

// gatherScratch is the read engine's working set: the handle's own, like its
// clock and its inline-record buffer (writeplan.go), allocated by its first
// read and reused by every plan after it. Its slices only grow, so once they
// have reached a plan's size, planning, intersecting and decoding that plan
// allocate nothing — whatever number of blocks it touches. It is never the
// handle group's: several ranks run plans at once, each on its own handle.
//
// A plan's units and their intersections live here from resolve to the end
// of consume, so nothing the engine hands back may point into it: every
// result is copied out (clone, string, the caller's buffer, a view's fresh
// fallback buffer) or points into the pool or the DRAM index.
type gatherScratch struct {
	units []readUnit
	jobs  []readUnit // the scatter's copy of a plan's units, split for its wave
	// dims is the arena every unit's isOffs and isCnts are carved from, with
	// full slice expressions: a carved range is never appended to, and a
	// split carves new ranges rather than writing the old ones.
	dims []uint64
	// dec is one decode target per worker of the widest wave so far: the
	// scatter's workers each decode into their own, and the serial consume
	// steps (clone, statistics) into dec[0].
	dec []decodeSlot
}

// decodeSlot is a codec.DecodeTo target: a datum and the MaxDims extents its
// Dims use.
type decodeSlot struct {
	d    serial.Datum
	dims [serial.MaxDims]uint64
}

// hint resets the slot to the hint of its next decode: the stored type and
// dims, copied in — a decode writes its Dims.
func (s *decodeSlot) hint(t serial.DType, dims []uint64) *serial.Datum {
	s.d = serial.Datum{Type: t, Dims: append(s.dims[:0], dims...)}
	return &s.d
}

// gather returns the handle's read scratch, allocating it on first use.
func (p *PMEM) gather() *gatherScratch {
	if p.gs == nil {
		p.gs = new(gatherScratch)
	}
	return p.gs
}

// slots returns decode targets for n workers.
func (g *gatherScratch) slots(n int) []decodeSlot {
	if len(g.dec) < n {
		g.dec = make([]decodeSlot, n)
	}
	return g.dec[:n]
}

// carve copies v into the arena and returns the copy.
func (g *gatherScratch) carve(v []uint64) []uint64 {
	n := len(g.dims)
	g.dims = append(g.dims, v...)
	return g.dims[n:len(g.dims):len(g.dims)]
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
// nothing of one, and its working set (the resolved units) is the handle's
// gather scratch, so a load adds no heap object for being planned.
type readPlan struct {
	id         string
	consume    consumeKind
	quarantine quarPolicy
	verify     verifyPolicy

	// Scatter/alias: the requested region and the scatter destination (nil on
	// view plans — the engine allocates one only when the alias degrades).
	// Clone: dst, when set, takes the value's payload — its first len(dst)
	// bytes — instead of a private datum, and asString a string instead.
	offs, counts []uint64
	dst          []byte
	asString     bool

	// as is the element type a typed view reads the request as (Invalid:
	// any): resolve holds the declared type to it (heldDims) before any byte
	// of the variable is read, any lease taken or the bounds checked.
	as serial.DType

	// Scrub: the pass's cancellation and paced charge, both applied between
	// blocks. Nil on every other plan.
	sweep *scrubPacer

	// v is the id's variable, read-locked by run: its DRAM index is the one
	// the plan resolves against.
	v *variable

	// What the layout resolves the plan to (resolve). The units are a slice
	// or — every whole-value load — the single unit in one, so that load still
	// adds no heap object for being planned.
	units   []readUnit
	one     [1]readUnit
	single  bool
	done    bool       // nothing to execute: a value that references no blocks
	kind    recordKind // record plans: what the record turned out to be
	dropped trailer    // record and stats plans: the block list's trailer
	file    *varFile   // the variable's open file, closed by run
	esize   int        // request plans: the element size ...
	need    int64      // ... and the request's bytes
	covered int64      // sum of the (post-gate) units' bytes

	// Results.
	blocks   int64         // units that passed the gate (a reporting sweep: that it finished)
	parallel bool          // the worker pool ran the scatter
	bad      []blockRec    // verifyReport: units that failed their CRC ...
	badAt    []int         // ... and their positions in the plan
	datum    *serial.Datum // consumeClone, unless dst or asString is set
	str      string        // consumeClone with asString, of a string value
	dtype    serial.DType  // consumeClone: the value's type ...
	n        int           // ... and its payload bytes
	view     *BlockView    // consumeAlias
	stats    []BlockStats  // consumeStats (Offs and Counts alias the index: copy before returning)
}

// bound checks a request plan against the variable's declared dims and sizes
// it.
func (pl *readPlan) bound(rec dimsRecord) error {
	if err := nd.CheckBlock(rec.dims, pl.offs, pl.counts); err != nil {
		return err
	}
	pl.esize = rec.dtype.Size()
	pl.need = int64(nd.Size(pl.counts)) * int64(pl.esize)
	if pl.consume == consumeScatter && int64(len(pl.dst)) < pl.need {
		return fmt.Errorf("core: dst %d bytes, block needs %d: %w", len(pl.dst), pl.need, ErrOutOfBounds)
	}
	return nil
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
	pl.v = p.variable(pl.id)
	pl.v.RLock()
	defer pl.v.RUnlock()
	lay := p.st.lay
	err := p.st.resolve(p, pl)
	defer pl.file.close()
	if pl.done || err != nil {
		return err
	}
	units := pl.units
	if pl.single {
		units = pl.one[:]
	}
	for i := range units {
		pl.covered += units[i].bytes
	}
	if pl.consume.ofRequest() && pl.covered < pl.need {
		return fmt.Errorf("core: request on %q only covered %d of %d bytes: %w",
			pl.id, pl.covered, pl.need, ErrNotFound)
	}
	// The op's one verification decision. Only pool blocks publish CRCs;
	// without them there is nothing to verify against, and the op draws no
	// sampling tick.
	verify := lay.pooled() && (pl.verify != verifyByMode || p.shouldVerify())
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

// stored returns a unit's stored bytes, as the layout keeps them.
func (e readEngine) stored(u *readUnit) ([]byte, error) { return e.p.st.lay.stored(e.p, *u) }

// stored is the pool layout's: the block's slice of its pool's mapping — the
// only read-side pool.Slice.
func (l poolLayout) stored(p *PMEM, u readUnit) ([]byte, error) {
	return p.poolOf(u.src.pool).Slice(u.src.data, u.src.encLen)
}

// record returns the metadata record published under id (pool layout only) as
// it sits in its home pool's mapping — no copy, so a whole-value load puts no
// record on the Go heap — and the value block holding it, charged as the one
// device read a record costs. The caller holds v, id's lock: every writer of
// the record (publish, republish, Delete) holds its write side, so the bytes
// stay put until the caller lets go. The lookup starts from the entry v
// knows, and installs the entry it found when v knew none.
func (p *PMEM) record(v *variable, id string) (raw []byte, at poolPMID, ok bool, err error) {
	home, clk := p.homeIdx(id), p.comm.Clock()
	f := p.fields(id) & knownEntries
	blk, n, entry, err := p.st.hts[home].GetRefAt(clk, []byte(id), v.entry(f))
	if err == nil {
		v.install(f, func() { v.at[f>>1] = entry })
	}
	if err != nil || entry == pmdk.Null {
		return nil, at, false, err
	}
	pool := p.st.pools[home]
	pool.Mapping().ChargeRead(clk, n)
	raw, err = pool.Slice(blk, n)
	return raw, poolPMID{pool: uint8(home), id: blk}, err == nil, err
}

// chargeUnit is the pool layout's: the unit's bytes streamed out of its
// pool's mapping by one goroutine.
func (l poolLayout) chargeUnit(p *PMEM, u readUnit, decPasses float64) {
	p.chargeMove(sim.Load, []poolBytes{{int(u.src.pool), u.bytes}}, decPasses, 1)
}

// whole returns one whole-block unit per block record.
func (g *gatherScratch) whole(blocks []blockRec) []readUnit {
	units := g.units[:0]
	for _, b := range blocks {
		units = append(units, readUnit{src: b, bytes: b.encLen})
	}
	g.units = units
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
		src, err := e.stored(u)
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
				pl.bad, pl.badAt = append(pl.bad, u.src), append(pl.badAt, i)
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
		src, err := e.stored(&units[0])
		if err != nil {
			return err
		}
		if len(src) < 1 {
			return fmt.Errorf("core: empty value for %q", pl.id)
		}
		if pl.kind == recInline {
			// The bytes arrived with the record: only the decode pass is left.
			p.chargeCodec(sim.Load, units[0].bytes, decPasses)
		} else {
			p.st.lay.chargeUnit(p, units[0], decPasses)
		}
		// The 1-byte type prefix lets non-self-describing codecs decode.
		d := p.gather().slots(1)[0].hint(serial.DType(src[0]), nil)
		if err := p.codec.DecodeTo(src[1:], d); err != nil {
			return err
		}
		// What the caller gets must alias neither the pool nor the scratch.
		pl.dtype, pl.n = d.Type, len(d.Payload)
		switch {
		case pl.dst != nil:
			bytesview.Copy(pl.dst, d.Payload)
		case pl.asString:
			if d.Type == serial.String {
				pl.str = string(d.Payload)
			}
		default:
			pl.datum = d.Clone()
		}
		return nil
	case consumeStats:
		pl.stats = make([]BlockStats, len(units))
		for i := range units {
			src, err := e.stored(&units[i])
			if err != nil {
				return err
			}
			if pl.stats[i], err = p.blockStats(units[i].src, src); err != nil {
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
	if verified || len(units) != 1 || units[0].bytes != pl.need || !e.p.st.lay.pooled() {
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
	src, err := e.stored(u)
	if err != nil {
		return nil, false // the fallback's read reports it
	}
	return src[start : start+pl.need : start+pl.need], true
}

// gather is what a scatter wave's jobs share: the engine, the request and a
// decode slot per worker, by value, so the plan itself stays on its
// planner's stack.
type gather struct {
	e            readEngine
	dst          []byte
	offs, counts []uint64
	esize        int
	slots        []decodeSlot
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
	gs := p.gather()
	jobs := gs.split(append(gs.jobs[:0], units...), workers)
	gs.jobs = jobs
	workers = min(workers, len(jobs))
	if pl.parallel {
		step = len(jobs)
		if in := p.st.ins; in.enabled {
			in.gatherDepth.Observe(int64(len(jobs)))
			for i := range jobs {
				in.gatherJobBytes.Observe(jobs[i].bytes)
			}
		}
	}
	g := gather{e: e, dst: pl.dst, offs: pl.offs, counts: pl.counts, esize: pl.esize, slots: gs.slots(workers)}
	for lo := 0; lo < len(jobs); lo += step {
		wave := jobs[lo : lo+step]
		if err := runWave(workers, g, wave, gather.place); err != nil {
			return err
		}
		e.chargeWave(wave, decPasses, workers)
	}
	return nil
}

// chargeWave accounts the units `workers` goroutines just streamed. One unit
// is the layout's to charge; a wider wave only ever runs where blocks live in
// pools (readParallelEligible), moving bytes out of their mappings.
func (e readEngine) chargeWave(wave []readUnit, decPasses float64, workers int) {
	p := e.p
	if len(wave) == 1 {
		p.st.lay.chargeUnit(p, wave[0], decPasses)
		return
	}
	var buf [8]poolBytes
	moved := buf[:0]
	for i := range wave {
		moved = append(moved, poolBytes{int(wave[i].src.pool), wave[i].bytes})
	}
	p.chargeMove(sim.Load, moved, decPasses, workers)
}

// place decodes one unit's stored block (zero-copy for the default codec: the
// payload aliases mapped PMEM) into worker w's decode slot and scatters its
// intersection into the request's destination. It is the only code a scatter
// worker runs: no clock (the hierarchy layout's file read, serial by
// construction, aside), no allocator, no device bookkeeping; the units it
// reads, the scratch included, are read-only for the wave.
func (g gather) place(w int, u *readUnit) error {
	src, err := g.e.stored(u)
	if err != nil {
		return err
	}
	d := g.slots[w].hint(u.src.dtype, u.src.counts)
	if err := g.e.p.codec.DecodeTo(src, d); err != nil {
		return err
	}
	return nd.PlaceIntersection(g.dst, g.offs, g.counts, d.Payload, u.src.offs, u.src.counts,
		u.isOffs, u.isCnts, g.esize)
}

// plan intersects the request (offs, counts) with the listed blocks — a list
// names only blocks a read can see (publishGroup) — emitting units in publish
// order. Their bytes may sum past the request size when stored blocks overlap.
// On an ascending list (blockIndex) the blocks a request can meet are one run,
// found with two binary searches on dim 0, and the walk over that run emits
// what the walk over the whole list would; any other list is walked whole.
func (g *gatherScratch) plan(e *blockIndex, offs, counts []uint64, esize int) []readUnit {
	blocks := e.blocks
	if e.ascending && len(offs) > 0 {
		lo, hi := offs[0], offs[0]+counts[0]
		blocks = blocks[sort.Search(len(blocks), func(i int) bool { return blocks[i].offs[0]+blocks[i].counts[0] > lo }):]
		blocks = blocks[:sort.Search(len(blocks), func(i int) bool { return blocks[i].offs[0] >= hi })]
	}
	return g.walk(blocks, offs, counts, esize)
}

// walk intersects the request with every block of blocks, in order.
func (g *gatherScratch) walk(blocks []blockRec, offs, counts []uint64, esize int) []readUnit {
	// Every block's intersection fits the arena as sized here.
	rank := len(offs)
	if need := 2 * rank * len(blocks); cap(g.dims) < need {
		g.dims = make([]uint64, 0, need)
	}
	units, arena := g.units[:0], g.dims[:0]
	for bi := range blocks {
		b := &blocks[bi]
		// A long list of disjoint blocks mostly misses the request in dim 0:
		// that test is cheap, the full intersection is not.
		if rank > 0 && len(b.offs) == rank &&
			(b.offs[0] >= offs[0]+counts[0] || b.offs[0]+b.counts[0] <= offs[0]) {
			continue
		}
		at := len(arena)
		arena = arena[:at+2*rank]
		isOffs, isCnts := arena[at:at+rank:at+rank], arena[at+rank:at+2*rank:at+2*rank]
		if !nd.IntersectInto(isOffs, isCnts, offs, counts, b.offs, b.counts) {
			arena = arena[:at]
			continue
		}
		n := int64(nd.Size(isCnts)) * int64(esize)
		units = append(units, readUnit{src: *b, isOffs: isOffs, isCnts: isCnts, bytes: n})
	}
	g.units, g.dims = units, arena
	return units
}

// unitsOverlap reports whether any two units' regions intersect, in which
// case publish order matters and the plan is not safe to execute concurrently.
func unitsOverlap(units []readUnit) bool {
	for i := 0; i < len(units); i++ {
		for j := i + 1; j < len(units); j++ {
			if nd.Overlaps(units[i].isOffs, units[i].isCnts, units[j].isOffs, units[j].isCnts) {
				return true
			}
		}
	}
	return false
}

// split cuts large units along dim 0 of their intersection, in the scratch,
// until there are at least want of them, so even a single huge stored block
// fans out over the worker pool. Sub-units of one block never overlap,
// preserving the planner's no-overlap guarantee. units is the scatter's copy
// of the plan's (the wave's workers hold it, and a record plan's single unit
// lives on its planner's stack), which it extends in place.
func (g *gatherScratch) split(units []readUnit, want int) []readUnit {
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
		lo, hi := u, u // lo keeps u's offsets: carved ranges are never written
		lo.isCnts = g.carve(u.isCnts)
		hi.isOffs, hi.isCnts = g.carve(u.isOffs), g.carve(u.isCnts)
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
		p.st.lay.pooled() &&
		total >= parallelMinBytes
}

// InjectCorruption simulates silent media corruption: it XORs mask into n
// consecutive stored bytes of one published block of id, without touching the
// block's recorded CRC, virtual clock, or persist tracking — exactly what a
// failing cell or a misdirected write looks like to software. block selects
// which block of an array's block list to damage; block < 0 targets a whole
// value's single block (scalars, strings, whole-slice stores) — the block a
// value ref names, or an inline value's bytes in its record. off is reduced
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
	if !p.st.lay.pooled() {
		return 0, 0, fmt.Errorf("core: InjectCorruption requires the hashtable layout")
	}
	if mask == 0 {
		return 0, 0, fmt.Errorf("core: InjectCorruption with mask 0 is a no-op")
	}
	if off < 0 {
		return 0, 0, fmt.Errorf("core: negative offset %d", off)
	}
	v := p.variable(id)
	v.Lock()
	defer v.Unlock()
	raw, at, ok, err := p.record(v, id)
	if err != nil {
		return 0, 0, err
	}
	if !ok {
		return 0, 0, fmt.Errorf("core: id %q: %w", id, ErrNotFound)
	}
	blocks, kind, _, err := decodeRecord(raw, at, nil)
	if err != nil {
		return 0, 0, err
	}
	if kind.whole() && block < 0 {
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
	// The block index holds decoded records, not payload bytes, so no
	// invalidation is needed: readers will stream the damaged bytes.
	return int64(b.data) + off, n, nil
}
