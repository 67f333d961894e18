package core

import (
	"errors"
	"fmt"
	"slices"

	"pmemcpy/internal/checksum"
	"pmemcpy/internal/pmdk"
	"pmemcpy/internal/pmem"
	"pmemcpy/internal/serial"
	"pmemcpy/internal/sim"
)

// Unified write-path planner and commit engine.
//
// Every store request of the hashtable layout — a serial datum or block, a
// sharded parallel store, an async group-commit run — reduces to the same
// commit sequence:
//
//	1. allocate every destination block, one transaction per touched member
//	   pool, pools visited in ascending order (deterministic persist order
//	   for the crash explorer; a crash between pool transactions leaves only
//	   unpublished allocations — leaked until ROADMAP item 2a's reachability
//	   pass, never torn metadata);
//	2. fill, one wave at a time: capture each unit of the wave, run its jobs —
//	   each serializes DIRECTLY into the mapped PMEM block, the single pass
//	   that defines pMEMCPY, the codec's sweep (serial.Codec.EncodeSum) copying,
//	   characterizing and checksumming tile by tile — fold the job CRCs into the
//	   unit's, charge the analytic copy cost once, then persist each unit with
//	   one barrier carrying its registered persist point;
//	3. publish each id's new metadata with ONE atomic update per id — one
//	   record change (open, close below), in which a whole value also frees
//	   the blocks the record it replaces named (publishGroup).
//
// A record change is the one way the pool layout's records change: a publish,
// Delete, Compact, Alloc's dims record and the quarantine list each open one
// hashtable read-modify-write and close it with the new record (or none) and
// the blocks it stops naming, which the same transaction frees in the home
// pool (close).
//
// A whole value of at most inlineMax bytes has no block: steps 1 and 2 skip it
// and step 3 encodes it into the record it publishes (planGroup.inline), so
// the store is that one transaction — and, over a value of the same length,
// one undo entry. The decision is the engine's, so every planner inherits it.
//
// A serial or async plan is one wave per unit, each a single job on the
// caller's goroutine; a concurrent plan (storeBlock's shards, storeDatum's
// chunks) is one wave of all its fragments on the wave runner's pool
// (wave.go). checksum.Combine joins only what ran concurrently: the jobs that
// shared a unit. Bytes one goroutine wrote front to back never need it.
//
// The entry paths (store.go, parallel.go, async.go) are planners: they
// validate, shard, coalesce, and route, then hand a writePlan to the layout's
// commit — on the pool layout, the one commitEngine below. (The hierarchy
// layout's commit, hierarchy.go, stages each unit in DRAM and writes it
// through the kernel path.) Pool transactions for data blocks are taken ONLY
// here (enforced by cmd/commitvet); the sole exceptions are the pool-format
// bootstraps in core.go, which run before any data exists.

// writeFrag is one piece of a commit unit, encoded back-to-back with its
// siblings: the one sub-store of a sync unit (nil Future), one submission of
// a coalesced async run, or one worker's byte range of a chunked whole value.
type writeFrag struct {
	fut    *Future // completion handle (async plans only)
	datum  *serial.Datum
	encLen int64 // encoded size, computed at planning time
}

// writeUnit is one PMEM block a plan allocates, fills, persists, and
// publishes: a whole value, one serial block, one parallel shard, or one
// (possibly merged) async submission.
type writeUnit struct {
	pool   uint8    // member pool holding blk (home pool, or stripe target)
	offs   []uint64 // block-list publish coordinates (unused for value refs)
	counts []uint64
	frags  []writeFrag
	encLen int64        // allocation size
	point  pmem.PointID // persist point of this unit's payload flush

	// Filled by the engine.
	blk   pmdk.PMID
	wrote int64 // bytes written, type prefix included
	crc   uint32
}

// rec is the unit's published block reference.
func (u *writeUnit) rec(dtype serial.DType) blockRec {
	return blockRec{dtype: dtype, pool: u.pool, offs: u.offs, counts: u.counts, data: u.blk, encLen: u.wrote, crc: u.crc}
}

// publishKind selects a group's metadata record shape.
type publishKind uint8

const (
	// publishValueRef publishes the group's single unit as a (pmid, len, crc)
	// pointer record — the whole-value form — or, when it is small, inline. Its
	// block is framed by a 1-byte dtype tag before the encoded payload, which
	// non-self-describing codecs need to decode a whole value.
	publishValueRef publishKind = iota
	// publishBlockList appends every unit to the id's block list with one
	// metadata update — all-or-nothing, never a torn list.
	publishBlockList
)

// planGroup is one id's ordered run of units within a plan. Each group
// publishes with a single atomic metadata update.
type planGroup struct {
	id      string
	dtype   serial.DType
	publish publishKind
	units   []writeUnit
}

// inline reports whether the group's whole value is small enough to live in
// its metadata record instead of a block of its own.
func (g *planGroup) inline() bool {
	return g.publish == publishValueRef && g.units[0].encLen <= inlineMax
}

// writePlan is a fully planned write: what to allocate where, how wide to
// fill it, and how to publish and complete it. Planners build one; the engine
// executes it. A plan crosses the layout interface by value: its groups are
// where the engine leaves the outcome.
type writePlan struct {
	groups []planGroup
	// workers is the width of the fill. At 0 or 1 every unit is its own wave:
	// one job on the caller's goroutine encodes the unit's fragments back to
	// back. Above 1 the whole plan is ONE wave of exactly this many jobs, one
	// per fragment — a sharded store's units, or the byte ranges a planner cut
	// an identity-encoded whole value into.
	workers   int
	encPasses float64 // codec cost profile, sampled at planning time

	// fatal reports whether a publish error poisons the remaining groups
	// (async batch semantics); nil means stop on the first error, which is
	// equivalent for single-group sync plans.
	fatal func(error) bool
	// published runs once per group with its outcome (async plans complete
	// futures and count publishes here): after the group's metadata update,
	// lock released; with the fatal error for poisoned trailing groups; and
	// with the alloc or fill error for every group of a plan that failed
	// before anything was published.
	published func(g *planGroup, err error)
}

// units iterates the plan's units in publish order — also the alloc and fill
// order, so persist sequences are deterministic.
func (pl *writePlan) units(yield func(*planGroup, *writeUnit) bool) {
	for gi := range pl.groups {
		g := &pl.groups[gi]
		for i := range g.units {
			if !yield(g, &g.units[i]) {
				return
			}
		}
	}
}

// failWith routes a pre-publish error to every group's completion and
// returns it.
func (pl *writePlan) failWith(err error) error {
	if pl.published != nil {
		for gi := range pl.groups {
			pl.published(&pl.groups[gi], err)
		}
	}
	return err
}

// commitEngine executes writePlans. It is a view over the handle — engines
// carry no state of their own, so every path shares one implementation of
// the alloc/fill/persist/publish sequence.
type commitEngine struct {
	p *PMEM
}

// engine returns the handle's commit engine.
func (p *PMEM) engine() commitEngine { return commitEngine{p: p} }

// commit is the pool layout's: the commit engine runs the plan.
func (l poolLayout) commit(p *PMEM, plan writePlan) error { return p.engine().run(&plan) }

// run executes a plan: alloc, fill+persist, publish. On a nil error every
// group's metadata is published and every unit is durable. An alloc or fill
// failure fails the whole plan before anything is published, and the blocks
// it took go back to the allocator (freeBlocks) — unless the device is dead
// (pmem.ErrFailed): then nothing more can be written, and the blocks stay
// unpublished allocations, leaked until the reachability pass of ROADMAP item
// 2a.
func (e commitEngine) run(plan *writePlan) error {
	err := e.alloc(plan)
	if err == nil {
		if err = e.fill(plan); err == nil {
			return e.publish(plan)
		}
	}
	if !errors.Is(err, pmem.ErrFailed) {
		var blks []blockRec
		for _, u := range plan.units {
			if u.blk != pmdk.Null {
				blks = append(blks, blockRec{pool: u.pool, data: u.blk})
			}
		}
		if ferr := e.freeBlocks(blks); ferr != nil {
			err = fmt.Errorf("%w (returning its blocks: %v)", err, ferr)
		}
	}
	return plan.failWith(err)
}

// alloc allocates every unit's block (an inline value has none): ONE
// transaction per touched member pool, pools in ascending order. Amortizing tx
// begin/commit across a plan's units is the first of the three costs group
// commit and parallel stores batch over per-op writes. A pool whose
// transaction fails leaves its units without a block: it rolled back.
func (e commitEngine) alloc(plan *writePlan) error {
	for pi := range e.p.st.pools {
		if err := e.allocIn(plan, pi); err != nil {
			for _, u := range plan.units {
				if int(u.pool) == pi {
					u.blk = pmdk.Null
				}
			}
			return err
		}
	}
	return nil
}

// allocIn is alloc's transaction in pool pi, when the plan has blocks there.
// The transaction is begun outside any loop, so its handle stays in this
// frame.
func (e commitEngine) allocIn(plan *writePlan, pi int) error {
	pool, n := e.p.st.pools[pi], 0
	for g, u := range plan.units {
		if int(u.pool) == pi && !g.inline() {
			n++
		}
	}
	if n == 0 {
		return nil
	}
	tx, err := pool.Begin(e.p.comm.Clock())
	if err != nil {
		return err
	}
	for g, u := range plan.units {
		if int(u.pool) != pi || g.inline() {
			continue
		}
		if u.blk, err = pool.Alloc(tx, u.encLen); err != nil {
			tx.Abort()
			return err
		}
	}
	return tx.Commit()
}

// fillJob is one goroutine's share of a wave: a run of one unit's fragments
// and the range of the unit's mapped block they encode into, front to back.
type fillJob struct {
	u     *writeUnit
	dst   []byte
	frags []writeFrag
	// tagged jobs open a whole value's block: they write the dtype tag first.
	tagged bool
	dtype  serial.DType

	wrote int64 // bytes written, tag included
	crc   uint32
}

// fill serializes every unit into its mapped block, wave by wave. Capturing a
// unit (the crash simulator's pre-image) opens it and queues its jobs: one
// over all its fragments, or — in a concurrent plan — one per fragment.
func (e commitEngine) fill(plan *writePlan) error {
	p := e.p
	var jobs []fillJob
	for g, u := range plan.units {
		if g.inline() {
			continue
		}
		if jobs == nil {
			jobs = make([]fillJob, 0, max(1, plan.workers))
		}
		pool := p.poolOf(u.pool)
		dst, err := pool.Slice(u.blk, u.encLen)
		if err != nil {
			return err
		}
		if err := pool.Mapping().Capture(int64(u.blk), u.encLen); err != nil {
			return err
		}
		whole := fillJob{u: u, dst: dst, frags: u.frags, tagged: g.publish == publishValueRef, dtype: g.dtype}
		if plan.workers <= 1 {
			if err := e.wave(plan, append(jobs, whole)); err != nil {
				return err
			}
			continue
		}
		for fi := range u.frags {
			part := whole
			part.frags, part.tagged = u.frags[fi:fi+1], whole.tagged && fi == 0
			n := u.frags[fi].encLen
			if part.tagged {
				n++
			}
			part.dst, whole.dst = whole.dst[:n], whole.dst[n:]
			jobs = append(jobs, part)
		}
	}
	if len(jobs) == 0 {
		return nil
	}
	return e.wave(plan, jobs)
}

// wave runs one wave's jobs, folds their checksums into their units, charges
// the wave's analytic cost once, and persists each of its units with ONE
// barrier. Jobs touch neither the clock nor the device bookkeeping, so a
// crash point lands before or after the whole copy wave deterministically.
func (e commitEngine) wave(plan *writePlan, jobs []fillJob) error {
	p := e.p
	if err := runWave(plan.workers, e, jobs, commitEngine.encode); err != nil {
		return err
	}
	var buf [8]poolBytes
	moved := buf[:0]
	for i := range jobs {
		j := &jobs[i]
		if i == 0 || jobs[i-1].u != j.u {
			j.u.crc = j.crc
		} else {
			// The unit's jobs ran concurrently on adjacent ranges of its
			// block: the one place partial CRCs have to be joined.
			j.u.crc = checksum.Combine(j.u.crc, j.crc, j.wrote)
		}
		j.u.wrote += j.wrote
		moved = append(moved, poolBytes{int(j.u.pool), j.wrote})
		if in := p.st.ins; in.enabled && plan.workers > 1 {
			in.shardBytes.Observe(j.wrote)
		}
	}
	if p.st.opt.StagedSerialization {
		for _, m := range moved {
			p.chargeStoreBytes(m.pool, m.bytes, plan.encPasses)
		}
	} else {
		p.chargeMove(sim.Store, moved, plan.encPasses, len(jobs))
	}
	clk := p.comm.Clock()
	for i := range jobs {
		u := jobs[i].u
		if i > 0 && jobs[i-1].u == u {
			continue
		}
		if err := p.poolOf(u.pool).Mapping().Persist(clk, int64(u.blk), u.wrote, u.point); err != nil {
			return err
		}
	}
	return nil
}

// encode is the only code a fill worker runs: write the job's fragments into
// its range through the codec, whose one sweep over each payload also carries
// the job's running CRC — there is no checksum pass here.
func (e commitEngine) encode(_ int, j *fillJob) error {
	var off int64
	if j.tagged {
		j.dst[0] = byte(j.dtype)
		j.crc = checksum.Update(0, j.dst[:1])
		off = 1
	}
	for fi := range j.frags {
		frag := &j.frags[fi]
		wrote, crc, err := e.p.codec.EncodeSum(j.dst[off:off+frag.encLen], frag.datum, j.crc)
		if err != nil {
			return err
		}
		j.crc = crc
		off += int64(wrote)
	}
	j.wrote = off
	return nil
}

// publish writes each group's metadata — ONE atomic update per id, in group
// order — and drives the plan's completion callbacks. A publish error on an
// async plan poisons the remaining groups when the plan deems it fatal
// (their payloads persisted but the metadata path is failing); per-op
// conditions fail only their own group.
func (e commitEngine) publish(plan *writePlan) error {
	p := e.p
	var firstErr error
	for gi := range plan.groups {
		g := &plan.groups[gi]
		v := p.variable(g.id)
		v.Lock()
		err := e.publishGroup(g, plan.encPasses)
		v.Unlock()
		if plan.published != nil {
			plan.published(g, err)
		}
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			if plan.fatal == nil || plan.fatal(err) {
				for g2 := gi + 1; g2 < len(plan.groups) && plan.published != nil; g2++ {
					plan.published(&plan.groups[g2], err)
				}
				return firstErr
			}
		}
	}
	return firstErr
}

// publishGroup publishes one group's record as ONE record change (open,
// close): a block list gains the group's units; a whole value replaces the
// record, and close drops the blocks the old one owned — a value ref's block,
// or every block of the block list it replaces. An inline value owns no block:
// replacing one frees nothing but the record's own bytes, which the hashtable
// moves, and an inline value of the old one's length is pmdk's in-place form —
// one undo entry, one transaction, no allocator traffic. A block list is
// appended to and never pruned (ROADMAP item 1: blocked on bench/ckpt.go's
// cumulative MinMax model). The caller holds the id's lock.
func (e commitEngine) publishGroup(g *planGroup, encPasses float64) error {
	// A value ref's old block and 21-byte record stay in this frame (an
	// inline record is built in the handle's).
	var one [1]blockRec
	t, drop, err := e.open(g.id, one[:0])
	if err != nil {
		return err
	}
	var rec []byte
	switch ref := g.units[0].rec(g.dtype); {
	case g.publish == publishBlockList:
		var blocks []blockRec
		if blocks, err = t.list(drop); err == nil {
			for i := range g.units {
				blocks = append(blocks, g.units[i].rec(g.dtype))
			}
			rec, drop = blockList.encode(blocks), nil
		}
	case g.inline():
		rec, err = e.inlineRecord(g, encPasses)
	default:
		rec = encodeValueRef(&ref)
	}
	if err != nil {
		return t.u.Finish(err)
	}
	if err := e.close(&t, rec, drop); err != nil {
		return err
	}
	in := e.p.st.ins
	if g.inline() {
		in.inlineValues.Inc()
	}
	in.supersededBlocks.Add(int64(len(drop)))
	for i := range drop {
		in.supersededBytes.Add(drop[i].encLen)
	}
	return nil
}

// inlineRecord encodes the group's whole value into the handle's scratch as
// its inline record — the fill a unit with a block gets from wave, minus the
// block: one job on the caller's goroutine, the same sweep and running CRC,
// the encode pass charged here and the bytes' way to the device by the
// transaction that writes them.
func (e commitEngine) inlineRecord(g *planGroup, encPasses float64) ([]byte, error) {
	if e.p.inl == nil {
		e.p.inl = new([inlinePrefix + inlineMax]byte)
	}
	u, buf := &g.units[0], e.p.inl[:]
	j := fillJob{dst: buf[inlinePrefix : inlinePrefix+u.encLen], frags: u.frags, tagged: true, dtype: g.dtype}
	if err := e.encode(0, &j); err != nil {
		return nil, err
	}
	u.wrote, u.crc = j.wrote, j.crc
	e.p.chargeCodec(sim.Store, j.wrote, encPasses)
	sealInline(buf, j.crc)
	return buf[:inlinePrefix+j.wrote], nil
}

// --- record changes ---

// recordTx is one open record change of the pool layout: the key's bucket
// locked, a transaction open, the chain walked once, and the record being
// replaced decoded from the cursor — mapped, not copied. The caller holds the
// id's lock; close, or t.u.Finish, ends it.
//
// It holds nothing of its caller's frame: escape analysis does not tell a
// struct's fields apart, and the cursor's methods leak their receiver, so a
// key or decode scratch kept here would cost the per-op path a heap object
// each. open hands the decoded blocks back beside it instead.
type recordTx struct {
	u     pmdk.Update
	id    string
	home  int
	kind  recordKind
	inl   blockRec // an inline old record's own bytes
	found bool     // the key holds a record
	bad   error    // why the old record's references do not decode
}

// open opens a record change of id and returns the blocks the record being
// replaced owns (decodeRecord, into the optional scratch buf): a block list's
// blocks or a value ref's block. An inline value's bytes go with the record
// itself, raw metadata owns nothing, and neither does a record whose
// references do not decode.
func (e commitEngine) open(id string, buf []blockRec) (recordTx, []blockRec, error) {
	p := e.p
	home := p.homeIdx(id)
	u, err := p.st.hts[home].Update(p.comm.Clock(), []byte(id))
	if err != nil {
		return recordTx{}, nil, err
	}
	owned, kind, bad := decodeRecord(u.Old(), poolPMID{uint8(home), u.OldID()}, buf)
	t := recordTx{u: u, id: id, home: home, kind: kind, found: u.OldID() != pmdk.Null, bad: bad}
	switch {
	case bad != nil:
		owned = nil
	case kind == recInline:
		t.inl, owned = owned[0], nil
	}
	return t, owned, nil
}

// list returns owned, what open returned, as the old record's block list —
// none when the key is absent — or why it is not one.
func (t *recordTx) list(owned []blockRec) ([]blockRec, error) {
	switch {
	case t.bad != nil:
		return nil, t.bad
	case t.found && t.kind != recBlockList:
		return nil, fmt.Errorf("core: %q holds a %v, not a block list", t.id, t.kind)
	}
	return owned, nil
}

// close ends a record change: it stages rec as the key's record — nil unlinks
// the key, unless its record's references do not decode: its blocks could
// never be given back — drops the blocks the record stops naming, and commits.
// This is the one rule every record change of the pool layout follows:
//
//   - a dropped block in the key's home pool is freed in the same transaction,
//     after the stage (a block freed first could be the very one the stage
//     allocates, its bytes then overwritten outside the undo log): the log
//     moves record and allocator together — before the commit recovery
//     restores the old record and the blocks it names, after it the record is
//     new and the blocks are free;
//   - with a view lease open every dropped block is parked on the limbo
//     instead (view.go), so a view planned against the old record keeps
//     reading its blocks;
//   - a dropped block in another member pool — a sharded store's stripe — is
//     freed after the commit, one transaction per pool (freeBlocks): a crash
//     between the two leaks it until the reachability pass of ROADMAP item 2a,
//     never dangles a pointer.
//
// The DRAM index drops with the change, and every dropped block — and an
// inline record's own bytes, rewritten or freed with the record — leaves the
// quarantine.
func (e commitEngine) close(t *recordTx, rec []byte, drop []blockRec) error {
	p := e.p
	var err error
	switch {
	case rec != nil:
		err = t.u.Set([]byte(t.id), rec)
	case t.bad != nil:
		err = t.bad
	default:
		err = t.u.Unlink()
	}
	parked := p.st.viewActive.Load() != 0
	var elsewhere []blockRec
	for i := 0; err == nil && !parked && i < len(drop); i++ {
		if int(drop[i].pool) == t.home {
			err = t.u.Free(drop[i].data)
		} else {
			elsewhere = append(elsewhere, drop[i])
		}
	}
	err = t.u.Finish(err)
	p.invalidate(t.id)
	if err != nil {
		return err
	}
	if t.kind == recInline && t.bad == nil {
		inl := [1]blockRec{t.inl}
		p.unquarantine(inl[:])
	}
	if parked && len(drop) > 0 {
		return p.park(drop)
	}
	if err := e.freeBlocks(elsewhere); err != nil {
		return err
	}
	p.unquarantine(drop)
	return nil
}

// put and del are the pool layout's: one record change each, which drops
// every block the old record owned (a dims or quarantine record owns none).
func (l poolLayout) put(p *PMEM, id, suffix string, rec []byte) error {
	_, err := p.engine().change(id+suffix, rec)
	return err
}

func (l poolLayout) del(p *PMEM, id string) (bool, error) { return p.engine().change(id, nil) }

// change replaces key's record with rec (nil unlinks it) and reports whether
// the key held one.
func (e commitEngine) change(key string, rec []byte) (bool, error) {
	var one [1]blockRec
	t, owned, err := e.open(key, one[:0])
	if err == nil {
		err = e.close(&t, rec, owned)
	}
	return t.found && err == nil, err
}

// freeBlocks frees a set of (pool, PMID) blocks, one transaction per touched
// pool in ascending pool order — the free loop behind a record change's
// blocks outside its home pool, the view layer's limbo reclaim, and a failed
// plan's release.
func (e commitEngine) freeBlocks(blks []blockRec) error {
	for pi := range e.p.st.pools {
		if err := e.freeIn(blks, pi); err != nil {
			return err
		}
	}
	return nil
}

// freeIn is freeBlocks' transaction in pool pi, when blks has blocks there.
func (e commitEngine) freeIn(blks []blockRec, pi int) error {
	if !slices.ContainsFunc(blks, func(b blockRec) bool { return int(b.pool) == pi }) {
		return nil
	}
	pool := e.p.st.pools[pi]
	tx, err := pool.Begin(e.p.comm.Clock())
	if err != nil {
		return err
	}
	for _, b := range blks {
		if int(b.pool) != pi {
			continue
		}
		if err := pool.Free(tx, b.data); err != nil {
			tx.Abort()
			return err
		}
	}
	return tx.Commit()
}
