package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"pmemcpy/internal/serial"
)

// Asynchronous submission pipeline with write coalescing and group commit.
//
// StoreBlockAsync/StoreDatumAsync/LoadBlockAsync enqueue work on a per-handle
// (per-rank) submission queue and return a Future immediately. Ops accumulate
// in FIFO order and commit a coalesce window at a time, as a group: every
// store of the batch allocates out of ONE pool transaction, adjacent same-id
// sub-stores merge into single blocks (identity codecs only — the merged
// fragments encode back-to-back on one goroutine, so one running CRC32C
// covers the published block), and each id's new blocks publish with ONE
// metadata update. That amortizes the three per-op costs that
// dominate small writes — transaction begin/commit, the persist barrier, and
// the hashtable publish — across the window, which is the small-write penalty
// "Persistent Memory I/O Primitives" quantifies and E16 measures.
//
// Scheduling is deterministic, not free-running: virtual time advances only on
// the clock of the rank that issues an API call, so a background scheduler
// goroutine would make virtual-time results depend on host scheduling. Batches
// therefore execute inline on the submitting rank at deterministic drain
// points: the in-flight window filling up (backpressure on submit), an
// explicit Flush/Drain, joining a Future, or any synchronous op on the handle
// (which drains the queue first so program order per handle is preserved).
// The pipeline is asynchronous in its contract — submission returns before
// durability, completion is observed through the Future — while the crash
// explorer still sees the same persist ordering on every replay.
//
// Visibility and durability contract:
//
//   - A completed Future's data is readable and crash-durable.
//   - A pending submission is neither: it becomes visible only when its batch
//     commits.
//   - Same-id submissions complete in submission order; submissions to
//     different ids may commit in a different order than they were submitted
//     (the batch processes ids in first-appearance order).
//   - Flush/Drain complete every previously submitted op; Munmap drains
//     implicitly, so a closed handle never abandons queued writes.
//   - Errors propagate through the Future (and, first-error, through
//     Flush/Drain). Sentinels (ErrNotFound, ErrOutOfBounds, ErrMedia,
//     ErrCorrupt, ...) survive the async boundary wrapped exactly as on the
//     synchronous paths.

// Async queue defaults, used when the options leave the knobs zero.
const (
	// defaultCoalesceWindow is the number of submissions one batch commits.
	defaultCoalesceWindow = 32
	// defaultInflightWindows sizes the in-flight bound as a multiple of the
	// coalesce window: submission stalls (committing the oldest batch) once
	// this many windows are queued.
	defaultInflightWindows = 8
)

// Future is the completion handle of one asynchronous submission.
type Future struct {
	eng *asyncEngine // nil: completed at construction (async disabled)

	claimed atomic.Bool // completion claim (internal, first complete wins)
	done    atomic.Bool // published completion flag
	err     error       // op outcome, readable once done
	bytes   int64       // encoded bytes moved, readable once done
}

// Done reports whether the submission has completed (successfully or not).
func (f *Future) Done() bool { return f.done.Load() }

// Bytes returns the encoded bytes the op moved. Valid once Done.
func (f *Future) Bytes() int64 {
	if !f.done.Load() {
		return 0
	}
	return f.bytes
}

// Wait joins the future: it drives the submission queue until this op has
// committed and returns the op's error (wrapping the same sentinels the
// synchronous call would). If ctx is cancelled first, Wait returns the
// context's error and the op stays queued — a later Wait, Flush, or Drain
// completes it.
func (f *Future) Wait(ctx context.Context) error {
	if f.done.Load() {
		return f.err
	}
	if f.eng == nil {
		return f.err
	}
	if err := f.eng.flush(ctx, f); err != nil {
		return err
	}
	return f.err
}

// complete publishes the op outcome. First completion wins; the fields are
// written before done is stored, so a Done observer reads consistent values.
func (f *Future) complete(n int64, err error) {
	if f.claimed.CompareAndSwap(false, true) {
		f.bytes = n
		f.err = err
		f.done.Store(true)
	}
}

// completedFuture builds an already-done future (the synchronous fallback when
// the handle runs without WithAsync).
func completedFuture(n int64, err error) *Future {
	f := &Future{}
	f.complete(n, err)
	return f
}

// pendingKind discriminates queued submissions.
type pendingKind uint8

const (
	pendStoreBlock pendingKind = iota
	pendStoreDatum
	pendLoad
)

// pendingOp is one queued submission. offs/counts are copied at submit; data
// is NOT — the caller's buffer must stay untouched until the Future completes
// (the same zero-copy contract asynchronous interfaces like io_uring put on
// submitted buffers).
type pendingOp struct {
	kind   pendingKind
	id     string
	offs   []uint64
	counts []uint64
	data   []byte // store payload, or load destination for pendLoad
	datum  *serial.Datum
	fut    *Future
}

// asyncEngine is the per-handle submission queue. One exists per rank's PMEM
// handle (queues are per-rank like clocks); the commit paths below run on the
// goroutine that triggered the drain, under the engine mutex.
type asyncEngine struct {
	p *PMEM

	mu sync.Mutex
	q  []pendingOp // FIFO; a commit takes the oldest Options.CoalesceWindow ops
}

// AsyncEnabled reports whether this handle queues asynchronous submissions.
// Without WithAsync (or under the hierarchy layout) the *Async calls run
// eagerly and return completed Futures.
func (p *PMEM) AsyncEnabled() bool { return p.async != nil }

// AsyncPending returns the number of submissions queued on this handle.
func (p *PMEM) AsyncPending() int {
	if p.async == nil {
		return 0
	}
	p.async.mu.Lock()
	defer p.async.mu.Unlock()
	return len(p.async.q)
}

// StoreBlockAsync submits a block store (StoreBlock's asynchronous form) and
// returns its Future. data must stay untouched until the Future completes.
func (p *PMEM) StoreBlockAsync(id string, offs, counts []uint64, data []byte) *Future {
	if p.async == nil {
		n, _, err := p.storeBlock(id, offs, counts, data)
		return completedFuture(n, err)
	}
	return p.async.submit(pendingOp{
		kind:   pendStoreBlock,
		id:     id,
		offs:   append([]uint64(nil), offs...),
		counts: append([]uint64(nil), counts...),
		data:   data,
	})
}

// StoreDatumAsync submits a whole-value store (StoreDatum's asynchronous
// form). The datum's payload must stay untouched until the Future completes.
func (p *PMEM) StoreDatumAsync(id string, d *serial.Datum) *Future {
	if p.async == nil {
		n, _, err := p.storeDatum(id, d)
		return completedFuture(n, err)
	}
	return p.async.submit(pendingOp{kind: pendStoreDatum, id: id, datum: d})
}

// LoadBlockAsync submits a block load (LoadBlock's asynchronous form). dst is
// filled when the Future completes; it observes every earlier submission to
// the same id (same-id queue order) but not later ones.
func (p *PMEM) LoadBlockAsync(id string, offs, counts []uint64, dst []byte) *Future {
	if p.async == nil {
		n, _, err := p.loadBlock(id, offs, counts, dst)
		return completedFuture(n, err)
	}
	return p.async.submit(pendingOp{
		kind:   pendLoad,
		id:     id,
		offs:   append([]uint64(nil), offs...),
		counts: append([]uint64(nil), counts...),
		data:   dst,
	})
}

// Flush commits every submission queued so far. On a nil error, all their
// Futures are complete and their data is durable. The first batch error is
// returned (each affected Future carries its own); ctx cancellation stops
// between batches and leaves the remainder queued.
func (p *PMEM) Flush(ctx context.Context) error {
	if p.async == nil {
		return nil
	}
	return p.async.flush(ctx, nil)
}

// Drain is Flush plus the guarantee that no submission is left in flight: in
// this deterministic pipeline batches commit on the draining goroutine, so
// the two coincide — Drain exists as the close-path name of the contract
// (session Close and Munmap drain). Mirrors Scrub's context handling.
func (p *PMEM) Drain(ctx context.Context) error {
	return p.Flush(ctx)
}

// asyncBarrier orders a synchronous op after every queued asynchronous
// submission on this handle: sync ops observe all previously submitted async
// work, preserving per-handle program order. Batch errors stay on the
// affected Futures (and on the next explicit Flush); a synchronous op never
// fails because an unrelated queued op did.
func (p *PMEM) asyncBarrier() {
	if p.async != nil {
		_ = p.async.flush(context.Background(), nil)
	}
}

// takeOldestLocked removes and returns the oldest batch — the first coalesce
// window of the queue, or all of it when less is queued — or nil when the
// queue is empty.
func (e *asyncEngine) takeOldestLocked() []pendingOp {
	n := min(e.p.st.opt.CoalesceWindow, len(e.q))
	b := e.q[:n:n]
	if e.q = e.q[n:]; len(e.q) == 0 {
		e.q = nil // release the drained queue's submissions to the collector
	}
	return b
}

// submit enqueues op and applies backpressure: when the in-flight window is
// full, the submitter commits the oldest batch inline before queueing — the
// deterministic analogue of a producer stalling on a full submission ring.
func (e *asyncEngine) submit(op pendingOp) *Future {
	fut := &Future{eng: e}
	op.fut = fut
	in := e.p.st.ins
	e.mu.Lock()
	defer e.mu.Unlock()
	for len(e.q) >= defaultInflightWindows*e.p.st.opt.CoalesceWindow {
		in.asyncBackpressure.Inc()
		_ = e.commitBatch(e.takeOldestLocked()) // errors live on the batch's futures
	}
	in.asyncSubmitted.Inc()
	e.q = append(e.q, op)
	e.p.st.asyncDepth.Add(1)
	return fut
}

// flush commits batches, oldest first, until the queue is empty — or, with
// until set, until that future completes (another drainer may have completed
// it already) — returning the first batch error. ctx is checked between
// batches.
func (e *asyncEngine) flush(ctx context.Context, until *Future) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	var first error
	for {
		if until != nil && until.Done() {
			return first
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		b := e.takeOldestLocked()
		if len(b) == 0 {
			if until != nil && !until.Done() {
				// The future was not queued here (impossible unless a future
				// outlives its engine); fail it rather than spin.
				until.complete(0, fmt.Errorf("core: future lost by its submission queue"))
			}
			return first
		}
		if err := e.commitBatch(b); err != nil && first == nil {
			first = err
		}
	}
}

// batchFatal reports whether a commit error should abort the rest of the
// batch. Per-op conditions (missing id, bounds, type, corruption) fail only
// their own Future; everything else — device failures, media errors, broken
// metadata transactions — poisons the remaining ops, which complete with the
// same error.
func batchFatal(err error) bool {
	return err != nil &&
		!errors.Is(err, ErrNotFound) &&
		!errors.Is(err, ErrTypeMismatch) &&
		!errors.Is(err, ErrOutOfBounds) &&
		!errors.Is(err, ErrCorrupt)
}

// commitBatch executes one batch on the calling goroutine. Consecutive block
// stores form group commits (commitStores); datum stores and loads execute in
// queue position, so same-id submission order is preserved across kinds. It
// returns the error that poisoned the batch, if one did.
func (e *asyncEngine) commitBatch(ops []pendingOp) error {
	p := e.p
	in := p.st.ins
	in.asyncBatches.Inc()
	var start int64
	if in.enabled {
		start = int64(p.comm.Clock().Now())
		in.asyncBatchOps.Observe(int64(len(ops)))
	}
	var fatal error
	for i := 0; i < len(ops); {
		op := &ops[i]
		if fatal != nil {
			op.fut.complete(0, fatal)
			i++
			continue
		}
		var n int64
		var err error
		switch op.kind {
		case pendLoad:
			n, _, err = p.loadBlock(op.id, op.offs, op.counts, op.data)
			op.fut.complete(n, err)
			i++
		case pendStoreDatum:
			// A malformed argument is the submitter's own: it fails its Future
			// here and never enters a commit, so it cannot be taken for a
			// failing device.
			if verr := op.datum.Validate(); verr != nil {
				op.fut.complete(0, verr)
			} else {
				n, _, err = p.commitDatum(op.id, op.datum)
				op.fut.complete(n, err)
			}
			i++
		default: // pendStoreBlock: take the maximal run of block stores
			j := i
			for j < len(ops) && ops[j].kind == pendStoreBlock {
				j++
			}
			err = e.commitStores(ops[i:j])
			i = j
		}
		if batchFatal(err) {
			fatal = err
		}
	}
	p.st.asyncDepth.Add(-int64(len(ops)))
	if in.enabled {
		in.asyncBatchLat.Observe(int64(p.comm.Clock().Now()) - start)
	}
	return fatal
}

// commitStores is the group commit planner: validate, group by id, and
// coalesce adjacent runs, then hand the commit engine one writePlan — every
// block allocates out of one transaction per touched pool, a merged unit's
// fragments encode back-to-back under one running CRC32C, and each id's
// additions publish with a single metadata update.
func (e *asyncEngine) commitStores(stores []pendingOp) error {
	p := e.p
	in := p.st.ins
	encPasses, _ := p.codec.CostProfile()
	ie, ok := p.codec.(serial.IdentityEncoder)
	identity := ok && ie.IdentityEncode()

	// 1. Validate each submission (the synchronous path's own step; a failure
	// completes only that submission's Future) and group by id in
	// first-appearance order, coalescing adjacent runs as they arrive.
	var order []planGroup
	groups := make(map[string]int) // id -> index in order
	for i := range stores {
		op := &stores[i]
		dv, err := p.blockDatum(op.id, op.offs, op.counts, op.data)
		if err != nil {
			op.fut.complete(0, err)
			continue
		}
		d := &dv
		frag := writeFrag{fut: op.fut, datum: d, encLen: int64(p.codec.EncodedSize(d))}
		gi, ok := groups[op.id]
		if !ok {
			gi = len(order)
			groups[op.id] = gi
			order = append(order, planGroup{id: op.id, dtype: d.Type, publish: publishBlockList})
		}
		g := &order[gi]
		// Coalesce: merge into the id's last unit when the codec's encoding
		// is a plain payload copy and this fragment extends the unit's region
		// contiguously along dimension 0 (other dims identical). Merging only
		// consecutive same-id submissions preserves shadowing order.
		if identity && len(g.units) > 0 {
			u := &g.units[len(g.units)-1]
			if adjacentDim0(u.offs, u.counts, op.offs, op.counts) {
				u.counts[0] += op.counts[0]
				u.frags = append(u.frags, frag)
				u.encLen += frag.encLen
				in.asyncCoalesced.Inc()
				continue
			}
		}
		g.units = append(g.units, writeUnit{
			offs:   append([]uint64(nil), op.offs...),
			counts: append([]uint64(nil), op.counts...),
			frags:  []writeFrag{frag},
			encLen: frag.encLen,
			pool:   uint8(p.homeIdx(op.id)),
		})
	}
	if len(order) == 0 {
		return nil
	}
	// Persist points resolve once coalescing settles: merged units carry the
	// merge point, single submissions the batch payload point.
	for gi := range order {
		for i := range order[gi].units {
			if u := &order[gi].units[i]; len(u.frags) > 1 {
				u.point = ptAsyncMerge
			} else {
				u.point = ptAsyncPayload
			}
		}
	}

	return p.st.lay.commit(p, writePlan{
		groups:    order,
		encPasses: encPasses,
		// A fatal publish error poisons the remaining groups: their payloads
		// persisted but the metadata path is failing.
		fatal: batchFatal,
		// Every store future of the run completes here, with its group's
		// outcome. complete is first-wins, so futures already carrying a
		// validation error are untouched.
		published: func(g *planGroup, err error) {
			if err == nil {
				in.asyncPublishes.Inc()
			}
			for i := range g.units {
				u := &g.units[i]
				if err == nil && in.enabled {
					in.asyncBatchBytes.Observe(u.wrote)
				}
				for fi := range u.frags {
					f := &u.frags[fi]
					if err != nil {
						f.fut.complete(0, err)
					} else {
						f.fut.complete(f.encLen, nil)
					}
				}
			}
		},
	})
}

// adjacentDim0 reports whether region (bOffs, bCounts) extends (aOffs,
// aCounts) contiguously along dimension 0 with every other dimension equal —
// the merge-compatibility test for coalescing.
func adjacentDim0(aOffs, aCounts, bOffs, bCounts []uint64) bool {
	if len(aOffs) != len(bOffs) || len(aCounts) != len(bCounts) {
		return false
	}
	if len(aOffs) == 0 || bOffs[0] != aOffs[0]+aCounts[0] {
		return false
	}
	for d := 1; d < len(aOffs); d++ {
		if aOffs[d] != bOffs[d] || aCounts[d] != bCounts[d] {
			return false
		}
	}
	return true
}
