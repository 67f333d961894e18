package core

import (
	"pmemcpy/internal/checksum"
	"pmemcpy/internal/pmdk"
	"pmemcpy/internal/pmem"
	"pmemcpy/internal/serial"
	"pmemcpy/internal/sim"
)

// Unified write-path planner and commit engine.
//
// Every store request of the hashtable layout — a serial datum or block, a
// sharded parallel store, an async group-commit run, a compact or scrub
// republish — reduces to the same commit sequence:
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
//	   hashtable read-modify-write, in which a whole value also frees the
//	   block it shadows (publishGroup).
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
// failure fails the whole plan — nothing is published yet — and leaves the
// allocated blocks unpublished: never dangling pointers, but leaked — Compact
// only sees published blocks, and nothing else reclaims them until the
// reachability pass of ROADMAP item 2a.
func (e commitEngine) run(plan *writePlan) error {
	if err := e.alloc(plan); err != nil {
		return plan.failWith(err)
	}
	if err := e.fill(plan); err != nil {
		return plan.failWith(err)
	}
	return e.publish(plan)
}

// alloc allocates every unit's block (an inline value has none): ONE
// transaction per touched member pool, pools in ascending order. Amortizing tx
// begin/commit across a plan's units is the first of the three costs group
// commit and parallel stores batch over per-op writes.
func (e commitEngine) alloc(plan *writePlan) error {
	p := e.p
	clk := p.comm.Clock()
	for pi := 0; pi < len(p.st.pools); pi++ {
		var tx *pmdk.Tx
		for g, u := range plan.units {
			if int(u.pool) != pi || g.inline() {
				continue
			}
			if tx == nil {
				var err error
				tx, err = p.st.pools[pi].Begin(clk)
				if err != nil {
					return err
				}
			}
			blk, err := p.st.pools[pi].Alloc(tx, u.encLen)
			if err != nil {
				tx.Abort()
				return err
			}
			u.blk = blk
		}
		if tx != nil {
			if err := tx.Commit(); err != nil {
				return err
			}
		}
	}
	return nil
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
func (e commitEngine) encode(j *fillJob) error {
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
		lock := p.varLock(g.id)
		lock.Lock()
		err := e.publishGroup(g, plan.encPasses)
		if err == nil {
			p.invalidateCache(g.id)
		}
		lock.Unlock()
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

// publishGroup publishes one group's record as ONE hashtable read-modify-write
// (pmdk.Update): lock the bucket, walk the chain once, decode the record being
// replaced from the cursor, commit the new one. The caller holds the id's lock.
//
// A whole value supersedes the whole value it replaces: the old block is freed
// in the publishing transaction, so the undo log makes record and allocator
// move together — before the generation bump recovery restores the old record
// and the old block's header; after it the record is new and the block free.
// With a view lease open the block is parked on the limbo after the commit
// instead, as Delete does. An inline value owns no block — replacing one frees
// nothing, and the hashtable moves the record's own — and an inline value of
// the old one's length is pmdk's in-place form: one undo entry, one
// transaction, no allocator traffic. A block list is appended to and never
// pruned (ROADMAP item 1: blocked on bench/ckpt.go's cumulative MinMax model).
func (e commitEngine) publishGroup(g *planGroup, encPasses float64) error {
	p := e.p
	// The hashtable is called concretely, not through the layout value, and
	// the cursor keeps no key, so the key bytes and a value ref's 21-byte
	// record stay in this frame (an inline record is built in the handle's).
	home, key := p.homeIdx(g.id), []byte(g.id)
	u, err := p.st.hts[home].Update(p.comm.Clock(), key)
	if err != nil {
		return err
	}
	raw := u.Old()
	if g.publish == publishBlockList {
		var blocks []blockRec
		if raw != nil {
			if blocks, err = blockList.decode(raw); err != nil {
				u.Abort() // err is the one to report; a failed rollback is recovery's at the next Open
				return err
			}
		}
		for i := range g.units {
			blocks = append(blocks, g.units[i].rec(g.dtype))
		}
		return u.Commit(key, blockList.encode(blocks))
	}
	var one [1]blockRec
	old, kind, _ := decodeRecord(raw, poolPMID{uint8(home), u.OldID()}, one[:0])
	parked := p.st.viewActive.Load() != 0
	if kind == recValueRef && !parked { // an array's blocks are not a whole value's to free
		err = u.Free(old[0].data)
	}
	var rec []byte
	switch ref := g.units[0].rec(g.dtype); {
	case err != nil:
	case g.inline():
		rec, err = e.inlineRecord(g, encPasses)
	default:
		rec = encodeValueRef(&ref)
	}
	if err != nil {
		u.Abort() // as above
		return err
	}
	if err := u.Commit(key, rec); err != nil {
		return err
	}
	if g.inline() {
		p.st.ins.inlineValues.Inc()
	}
	if kind == recInline {
		// The bytes a quarantine entry named are rewritten, or back with the
		// allocator.
		p.unquarantine(old)
	}
	if kind != recValueRef {
		return nil
	}
	p.st.ins.supersededBlocks.Inc()
	p.st.ins.supersededBytes.Add(old[0].encLen)
	if parked {
		return p.deferOrFreeBlocks(old)
	}
	p.unquarantine(old)
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
	if err := e.encode(&j); err != nil {
		return nil, err
	}
	u.wrote, u.crc = j.wrote, j.crc
	e.p.chargeCodec(sim.Store, j.wrote, encPasses)
	sealInline(buf, j.crc)
	return buf[:inlinePrefix+j.wrote], nil
}

// republishLocked rewrites id's block list in place (compact, and any future
// in-place metadata rewrite). The caller holds the id's write lock; the DRAM
// index drops with the publish so no reader plans a gather against a PMID
// the allocator may repurpose.
func (e commitEngine) republishLocked(id string, blocks []blockRec) error {
	if err := e.p.putValue(id, blockList.encode(blocks)); err != nil {
		return err
	}
	e.p.invalidateCache(id)
	return nil
}

// freeBlocks frees a set of (pool, PMID) blocks, one transaction per touched
// pool in ascending pool order — the single free loop under Delete, Compact,
// the view layer's limbo reclaim, and every abort path.
func (e commitEngine) freeBlocks(blks []blockRec) error {
	p := e.p
	clk := p.comm.Clock()
	for pi := 0; pi < len(p.st.pools); pi++ {
		var tx *pmdk.Tx
		for _, b := range blks {
			if int(b.pool) != pi {
				continue
			}
			if tx == nil {
				var err error
				tx, err = p.st.pools[pi].Begin(clk)
				if err != nil {
					return err
				}
			}
			if err := p.st.pools[pi].Free(tx, b.data); err != nil {
				tx.Abort()
				return err
			}
		}
		if tx != nil {
			if err := tx.Commit(); err != nil {
				return err
			}
		}
	}
	return nil
}
