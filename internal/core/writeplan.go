package core

import (
	"encoding/binary"
	"fmt"
	"sync"

	"pmemcpy/internal/checksum"
	"pmemcpy/internal/pmdk"
	"pmemcpy/internal/pmem"
	"pmemcpy/internal/serial"
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
//	   unpublished allocations — recoverable garbage, never torn metadata);
//	2. serialize DIRECTLY into the mapped PMEM blocks — the single pass that
//	   defines pMEMCPY — folding per-fragment CRC32Cs with checksum.Combine
//	   so the published CRC covers each block without a second pass;
//	3. charge the analytic copy cost, then persist each block with one
//	   barrier carrying its registered persist point;
//	4. publish each id's new metadata with ONE atomic update per id.
//
// The entry paths (store.go, parallel.go, async.go) are planners: they
// validate, shard, coalesce, and route, then hand a writePlan to the one
// commitEngine below. The hierarchy layout's staged write (serialize to a
// DRAM buffer, write through the kernel path) shares the engine through
// runStaged. Pool transactions for data blocks are taken ONLY here (enforced
// by cmd/commitvet); the sole exceptions are the pool-format bootstraps in
// core.go, which run before any data exists.

// writeFrag is one submitted sub-store inside a commit unit. Sync plans have
// exactly one frag per unit and a nil Future; async units may carry a
// coalesced run of fragments that encode back-to-back into one block.
type writeFrag struct {
	fut    *Future // completion handle (async plans only)
	datum  serial.Datum
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
	encLen int64 // allocation size
	// prefix writes a 1-byte dtype tag before the encoded payload, the frame
	// non-self-describing codecs need to decode a whole value.
	prefix bool
	// persistFull persists the allocated encLen rather than the written
	// length (whole-value records persist their full extent).
	persistFull bool
	point       pmem.PointID // persist point of this unit's payload flush

	// Filled by the engine.
	blk   pmdk.PMID
	wrote int64 // bytes written, prefix included
	crc   uint32
}

// publishKind selects a group's metadata record shape.
type publishKind uint8

const (
	// publishValueRef publishes the group's single unit as a (pmid, len, crc)
	// pointer record — the whole-value form.
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

// fillMode selects how the engine serializes a plan's units into PMEM.
type fillMode uint8

const (
	// fillSerial encodes units one after another on the calling goroutine
	// (serial stores; async group commits, whose merged units fold fragment
	// CRCs with checksum.Combine).
	fillSerial fillMode = iota
	// fillChunked cuts one identity-encoded unit into byte ranges copied by
	// concurrent workers (storeDatumParallel).
	fillChunked
	// fillSharded captures every unit up front, then a worker wave encodes
	// all units concurrently; the coordinator charges the striped cost and
	// persists after the join (storeBlockParallel).
	fillSharded
)

// writePlan is a fully planned write: what to allocate where, how to fill
// it, and how to publish and complete it. Planners build one; the engine
// executes it.
type writePlan struct {
	groups    []*planGroup
	fill      fillMode
	workers   int     // fillChunked worker budget (clamped by the engine)
	encPasses float64 // codec cost profile, sampled at planning time

	// fail completes every queued future with err before any publish
	// happened (async plans; nil on sync plans). The engine invokes it on
	// alloc and fill errors — never after a group published.
	fail func(error)
	// fatal reports whether a publish error poisons the remaining groups
	// (async batch semantics); nil means stop on the first error, which is
	// equivalent for single-group sync plans.
	fatal func(error) bool
	// published runs after each group's metadata update (lock released),
	// with the group's outcome; poisoned trailing groups see the fatal
	// error. Async plans complete futures and count publishes here.
	published func(g *planGroup, err error)
	// afterUnit runs after each fillSerial unit persists (async batch-bytes
	// instrumentation).
	afterUnit func(u *writeUnit)
}

// allUnits flattens the plan's groups in publish order — also the alloc and
// fill order, so persist sequences are deterministic.
func (pl *writePlan) allUnits() []*writeUnit {
	var out []*writeUnit
	for _, g := range pl.groups {
		for i := range g.units {
			out = append(out, &g.units[i])
		}
	}
	return out
}

// failWith routes a pre-publish error to the plan's queued futures (if any)
// and returns it.
func (pl *writePlan) failWith(err error) error {
	if pl.fail != nil {
		pl.fail(err)
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

// run executes a plan: alloc, fill+persist, publish. On a nil error every
// group's metadata is published and every unit is durable.
func (e commitEngine) run(plan *writePlan) error {
	units := plan.allUnits()
	if len(units) == 0 {
		return nil
	}
	if err := e.alloc(plan, units); err != nil {
		return err
	}
	var err error
	switch plan.fill {
	case fillChunked:
		err = e.fillChunked(plan, units)
	case fillSharded:
		err = e.fillSharded(plan, units)
	default:
		err = e.fillSerial(plan, units)
	}
	if err != nil {
		return err
	}
	return e.publish(plan)
}

// alloc allocates every unit's block: ONE transaction per touched member
// pool, pools in ascending order. Amortizing tx begin/commit across a plan's
// units is the first of the three costs group commit and parallel stores
// batch over per-op writes.
func (e commitEngine) alloc(plan *writePlan, units []*writeUnit) error {
	p := e.p
	clk := p.comm.Clock()
	for pi := 0; pi < len(p.st.pools); pi++ {
		var tx *pmdk.Tx
		for _, u := range units {
			if int(u.pool) != pi {
				continue
			}
			if tx == nil {
				var err error
				tx, err = p.st.pools[pi].Begin(clk)
				if err != nil {
					return plan.failWith(err)
				}
			}
			blk, err := p.st.pools[pi].Alloc(tx, u.encLen)
			if err != nil {
				tx.Abort()
				return plan.failWith(err)
			}
			u.blk = blk
		}
		if tx != nil {
			if err := tx.Commit(); err != nil {
				return plan.failWith(err)
			}
		}
	}
	return nil
}

// fillSerial encodes each unit directly into its mapped block and persists
// it with ONE barrier per unit. A merged unit's fragments encode
// back-to-back and their CRC32Cs fold with checksum.Combine, so the
// published CRC covers the whole block without a second pass. A mid-fill
// failure fails the whole plan (nothing is published yet) and leaves the
// allocated blocks unpublished — recoverable garbage.
func (e commitEngine) fillSerial(plan *writePlan, units []*writeUnit) error {
	p := e.p
	clk := p.comm.Clock()
	for _, u := range units {
		pool := p.poolOf(u.pool)
		dst, err := pool.Slice(u.blk, u.encLen)
		if err != nil {
			return plan.failWith(err)
		}
		if err := pool.Mapping().Capture(int64(u.blk), u.encLen); err != nil {
			return plan.failWith(err)
		}
		var off int64
		if u.prefix {
			dst[0] = byte(u.frags[0].datum.Type)
			off = 1
		}
		for fi := range u.frags {
			frag := &u.frags[fi]
			wrote, err := p.codec.EncodeTo(dst[off:off+frag.encLen], &frag.datum)
			if err != nil {
				return plan.failWith(err)
			}
			// Checksum while the bytes are still hot in cache; the prefix
			// byte's CRC folds in front of the first fragment's.
			fcrc := checksum.Sum(dst[off : off+int64(wrote)])
			switch {
			case fi == 0 && u.prefix:
				u.crc = checksum.Combine(checksum.Sum(dst[:1]), fcrc, int64(wrote))
			case fi == 0:
				u.crc = fcrc
			default:
				u.crc = checksum.Combine(u.crc, fcrc, int64(wrote))
			}
			off += int64(wrote)
		}
		u.wrote = off
		p.chargeStoreBytes(int(u.pool), u.wrote, plan.encPasses)
		n := u.wrote
		if u.persistFull {
			n = u.encLen
		}
		if err := pool.Mapping().Persist(clk, int64(u.blk), n, u.point); err != nil {
			return plan.failWith(err)
		}
		if plan.afterUnit != nil {
			plan.afterUnit(u)
		}
	}
	return nil
}

// fillChunked cuts the plan's single identity-encoded unit into byte ranges
// copied by concurrent workers. Workers checksum their own chunk; the
// coordinator folds the chunk CRCs after the join so the published CRC
// covers the whole block without a second pass.
func (e commitEngine) fillChunked(plan *writePlan, units []*writeUnit) error {
	p := e.p
	clk := p.comm.Clock()
	u := units[0]
	payload := u.frags[0].datum.Payload
	need := u.encLen
	pool := p.poolOf(u.pool)
	dst, err := pool.Slice(u.blk, need)
	if err != nil {
		return err
	}
	if err := pool.Mapping().Capture(int64(u.blk), need); err != nil {
		return err
	}
	dst[0] = byte(u.frags[0].datum.Type)
	workers := plan.workers
	if int64(workers) > need-1 {
		workers = int(need - 1)
	}
	plan.workers = workers
	chunk := (need - 1 + int64(workers) - 1) / int64(workers)
	chunkCRC := make([]uint32, workers)
	chunkLen := make([]int64, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo := int64(w) * chunk
		hi := lo + chunk
		if hi > need-1 {
			hi = need - 1
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(w int, lo, hi int64) {
			defer wg.Done()
			copy(dst[1+lo:1+hi], payload[lo:hi])
			chunkCRC[w] = checksum.Sum(dst[1+lo : 1+hi])
			chunkLen[w] = hi - lo
		}(w, lo, hi)
	}
	wg.Wait()
	// The block's CRC covers the type-prefix byte plus the chunked payload.
	crc := checksum.Sum(dst[:1])
	for w := 0; w < workers; w++ {
		crc = checksum.Combine(crc, chunkCRC[w], chunkLen[w])
	}
	if in := p.st.ins; in.enabled {
		in.shardBytes.Observe(chunk)
	}
	p.chargeParallelStore(int(u.pool), need, plan.encPasses, workers)
	if err := pool.Mapping().Persist(clk, int64(u.blk), need, u.point); err != nil {
		return err
	}
	u.wrote = need
	u.crc = crc
	return nil
}

// fillSharded captures every destination range up front (the crash
// simulator's pre-images), then a worker wave encodes all units
// concurrently. Workers touch neither the clock nor the device bookkeeping —
// the coordinator charges the analytic striped cost and persists after the
// join, so a crash point lands before or after the whole copy wave
// deterministically regardless of goroutine scheduling.
func (e commitEngine) fillSharded(plan *writePlan, units []*writeUnit) error {
	p := e.p
	clk := p.comm.Clock()
	g := plan.groups[0]
	dsts := make([][]byte, len(units))
	for i, u := range units {
		pool := p.poolOf(u.pool)
		dst, err := pool.Slice(u.blk, u.encLen)
		if err != nil {
			return err
		}
		if err := pool.Mapping().Capture(int64(u.blk), u.encLen); err != nil {
			return err
		}
		dsts[i] = dst
	}
	errs := make([]error, len(units))
	var wg sync.WaitGroup
	for i := range units {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			u := units[i]
			wrote, err := p.codec.EncodeTo(dsts[i], &u.frags[0].datum)
			u.wrote = int64(wrote)
			errs[i] = err
			if err == nil {
				// Each worker checksums its own shard while the bytes are
				// hot; shards publish as separate block records, so no
				// combine step is needed here.
				u.crc = checksum.Sum(dsts[i][:wrote])
			}
		}(i)
	}
	wg.Wait()
	for i := range units {
		if errs[i] != nil {
			// The allocated blocks stay unpublished; like every post-commit
			// failure they are garbage a Compact can reclaim, never dangling
			// pointers.
			return fmt.Errorf("core: parallel store of %q shard %d: %w", g.id, i, errs[i])
		}
	}
	if in := p.st.ins; in.enabled {
		for _, u := range units {
			in.shardBytes.Observe(u.wrote)
		}
	}
	// Charge the striped cost: per-pool byte totals stream concurrently, so
	// virtual time advances by the slowest stripe, not the sum.
	npools := len(p.st.pools)
	perPool := make([]int64, 0, npools)
	pis := make([]int, 0, npools)
	for pi := 0; pi < npools; pi++ {
		var n int64
		for _, u := range units {
			if int(u.pool) == pi {
				n += u.wrote
			}
		}
		if n > 0 {
			perPool = append(perPool, n)
			pis = append(pis, pi)
		}
	}
	p.chargeStripedStore(perPool, pis, plan.encPasses, len(units))
	for _, u := range units {
		if err := p.poolOf(u.pool).Mapping().Persist(clk, int64(u.blk), u.wrote, u.point); err != nil {
			return err
		}
	}
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
	for gi, g := range plan.groups {
		lock := p.varLock(g.id)
		lock.Lock()
		var err error
		switch g.publish {
		case publishValueRef:
			u := &g.units[0]
			err = p.putValue(g.id, encodeValueRef(u.blk, u.wrote, u.crc))
		default:
			var blocks []blockRec
			blocks, _, err = p.loadBlockList(g.id)
			if err == nil {
				for i := range g.units {
					u := &g.units[i]
					blocks = append(blocks, blockRec{
						dtype:  g.dtype,
						pool:   u.pool,
						offs:   u.offs,
						counts: u.counts,
						data:   u.blk,
						encLen: u.wrote,
						crc:    u.crc,
					})
				}
				err = p.putValue(g.id, encodeBlockList(blocks))
			}
		}
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
				for _, g2 := range plan.groups[gi+1:] {
					if plan.published != nil {
						plan.published(g2, err)
					}
				}
				return firstErr
			}
		}
	}
	return firstErr
}

// republishLocked rewrites id's block list in place (compact, and any future
// in-place metadata rewrite). The caller holds the id's write lock; the DRAM
// index drops with the publish so no reader plans a gather against a PMID
// the allocator may repurpose.
func (e commitEngine) republishLocked(id string, blocks []blockRec) error {
	if err := e.p.putValue(id, encodeBlockList(blocks)); err != nil {
		return err
	}
	e.p.invalidateCache(id)
	return nil
}

// publishQuarantine persists the store-wide quarantine list — the scrub
// path's metadata republish. The list always lives in pool 0's hashtable
// ('#'-prefixed reserved keys route there by construction); an empty list
// deletes the key.
func (e commitEngine) publishQuarantine(ids []poolPMID) error {
	st := e.p.st
	clk := e.p.comm.Clock()
	if len(ids) == 0 {
		_, err := st.hts[0].Delete(clk, []byte(quarantineKey))
		return err
	}
	return st.hts[0].Put(clk, []byte(quarantineKey), encodeQuarantine(ids))
}

// freeBlocks frees a set of (pool, PMID) blocks, one transaction per touched
// pool in ascending pool order — the single free loop under Delete, Compact,
// the view layer's limbo reclaim, and every abort path.
func (e commitEngine) freeBlocks(blks []poolPMID) error {
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
			if err := p.st.pools[pi].Free(tx, b.id); err != nil {
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

// stagedPlan is the hierarchy layout's write request: one framed record
// serialized into a DRAM buffer and written through the kernel path (the
// layout cannot encode straight into a device mapping). header is the frame
// prefix; with stampLen its trailing 8 bytes receive the encoded length
// after the fill.
type stagedPlan struct {
	id       string
	header   []byte
	stampLen bool
	datum    *serial.Datum
	// appendRec appends a block record to the variable's file; otherwise the
	// record replaces the file (whole-value form).
	appendRec bool
}

// runStaged executes a staged plan: encode into DRAM, charge the staged
// cost, then write and sync the variable's file under its lock. It is the
// engine's fill+publish for the hierarchy layout, where the filesystem
// replaces both the allocator and the metadata table.
func (e commitEngine) runStaged(h *hierStore, plan *stagedPlan) error {
	p := e.p
	clk := p.comm.Clock()
	encPasses, _ := p.codec.CostProfile()
	hdrLen := len(plan.header)
	enc := make([]byte, int64(hdrLen)+int64(p.codec.EncodedSize(plan.datum)))
	copy(enc, plan.header)
	wrote, err := p.codec.EncodeTo(enc[hdrLen:], plan.datum)
	if err != nil {
		return err
	}
	if plan.stampLen {
		binary.LittleEndian.PutUint64(enc[hdrLen-8:], uint64(wrote))
	}
	total := int64(hdrLen) + int64(wrote)
	h.chargeStagedEncode(p, total, encPasses)

	lock := p.varLock(plan.id)
	lock.Lock()
	defer lock.Unlock()
	if !plan.appendRec {
		return h.putValue(clk, plan.id, enc[:total])
	}
	fp, err := h.filePath(clk, plan.id, true)
	if err != nil {
		return err
	}
	f, err := h.node.FS.Open(clk, fp)
	if err != nil {
		if f, err = h.node.FS.Create(clk, fp); err != nil {
			return err
		}
	}
	defer f.Close()
	if _, err := f.WriteAt(clk, enc[:total], f.Size()); err != nil {
		return err
	}
	return f.Sync(clk)
}
