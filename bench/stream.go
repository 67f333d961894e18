package main

import (
	"context"
	"sort"

	"pmemcpy"
	"pmemcpy/internal/core"
)

// stream is diagnostics streaming through the asynchronous path: 1 rank,
// raw codec, async submission with a coalesce window, fresh pool per round.
// The write phase submits stRecords consecutive records of one time-series
// array from a ring of buffers (held by reference until their batch
// completes) and flushes at the end of every timestep, a seeded 3/4..1 of
// stFlush records, so most steps end in a partly filled coalesce window. The
// read phase re-maps synchronously and reads through views: one per block
// the write phase's batches coalesced into (zero-copy
// expected), stViews seeded ranges of 1..stViewMaxRecs records (zero-copy
// unless they straddle a block boundary), and one 2-record LoadSub across
// every block boundary (always the copying gather).
//
// It exercises core's queue/group commit/coalescing and view leases and
// bypasses serial encode and the one-tx-per-op sync path: a bp4 or
// sync-commit optimisation predicts no change here, and any cost pushed onto
// the batch or view paths shows.
type stream struct {
	noEpoch
	sc   *scale
	ring [][]float64
	futs []*core.Future
	step []int   // records per timestep this round
	blk  []int   // first record of every coalesced block this round, plus stRecords
	vRec []int32 // seeded view starts (record index) and lengths (records)
	vLen []int32
	dst  [][]float64 // boundary LoadSub destinations
	dOK  []bool
	offs []uint64 // scratch offs/counts for the single rank
	cnt  []uint64

	syncOpts, asyncOpts []pmemcpy.MmapOption
}

const (
	stPath = "/stream.pool"
	stID   = "ts"
)

func (w *stream) name() string  { return "stream-raw" }
func (w *stream) ranks() int    { return 1 }
func (w *stream) keys() int     { return 2 }
func (w *stream) recBytes() int { return w.sc.stElems * 8 }

// maxBlocks bounds the coalesced blocks of a round: the full windows plus
// one partial window per timestep.
func (w *stream) maxBlocks() int {
	return w.sc.stRecords/w.sc.stWindow + w.sc.stRecords/(w.sc.stFlush*3/4) + 2
}
func (w *stream) maxOpBytes() int64 { return int64(w.sc.stWindow * w.recBytes()) }
func (w *stream) devBytes() int64 {
	return int64(w.sc.stRecords*w.recBytes())*3/2 + 24<<20
}

func (w *stream) prepare(st *runState) {
	sc := w.sc
	g := newRNG(st.seed, 5)
	for i := 0; i < sc.stRing; i++ {
		b := make([]float64, sc.stElems)
		g.fill(b)
		w.ring = append(w.ring, b)
	}
	w.futs = make([]*core.Future, sc.stFlush)
	w.vRec = make([]int32, sc.stViews)
	w.vLen = make([]int32, sc.stViews)
	for b := 0; b < w.maxBlocks(); b++ {
		w.dst = append(w.dst, make([]float64, 2*sc.stElems))
	}
	w.dOK = make([]bool, len(w.dst))
	w.offs, w.cnt = make([]uint64, 1), make([]uint64, 1)
	w.syncOpts = []pmemcpy.MmapOption{pmemcpy.WithCodec("raw")}
	w.asyncOpts = []pmemcpy.MmapOption{pmemcpy.WithCodec("raw"), pmemcpy.WithAsync(), pmemcpy.WithCoalesceWindow(sc.stWindow)}
}

// stamp is the first element of record k in round r: it makes every record
// of every round distinct although the ring's payloads repeat.
func stamp(r, k int) float64 { return float64(r)*1e7 + float64(k) }

// matches compares a range of records starting at record k0 with the model.
func (w *stream) matches(got []float64, r, k0 int) bool {
	e := w.sc.stElems
	if len(got)%e != 0 {
		return false
	}
	for i := 0; i < len(got)/e; i++ {
		rec := got[i*e : (i+1)*e]
		k := k0 + i
		if rec[0] != stamp(r, k) {
			return false
		}
		want := w.ring[k%w.sc.stRing]
		for j := 1; j < e; j++ {
			if rec[j] != want[j] {
				return false
			}
		}
	}
	return true
}

// view is one timed LoadView + Data + Close of recs records from record k0.
// Inside the window it only checks what costs nothing — the length and the
// first record's stamp; the bytes are compared untimed by verifyViews.
func (w *stream) view(rk *rankCtx, pm *pmemcpy.PMEM, r, k0, recs int) {
	e := w.sc.stElems
	w.offs[0], w.cnt[0] = uint64(k0*e), uint64(recs*e)
	first, last := w.blockOf(k0), w.blockOf(k0+recs-1)
	sh := shape{
		bytes: recs * w.recBytes(), tag: uint64(k0)<<8 ^ uint64(recs), gets: 1, raw: true,
		fallback: first != last, blocks: last - first + 1,
		ndims: 1,
	}
	sh.counts[0] = uint64(w.sc.stWindow * e)
	sh.isCnts[0] = uint64(recs*e) / uint64(sh.blocks)
	t := rk.opBegin()
	v, err := pmemcpy.LoadView[float64](pm, stID, w.offs, w.cnt)
	good := false
	if err == nil {
		var data []float64
		if data, err = v.Data(); err == nil {
			good = len(data) == recs*e && data[0] == stamp(r, k0)
		}
		if cerr := v.Close(); err == nil {
			err = cerr
		}
	}
	if rk.opEnd(t, kLoadView, phLoad, sh, err) && !good {
		rk.mismatch(kLoadView)
	}
}

// blockOf returns the index of the coalesced block holding record k.
func (w *stream) blockOf(k int) int {
	return sort.SearchInts(w.blk, k+1) - 1
}

func (w *stream) round(rk *rankCtx, r int) error {
	sc := w.sc
	e := sc.stElems
	ctx := context.Background()
	g := newRNG(rk.st.seed, 6, uint64(r))
	for i := range w.vRec {
		w.vLen[i] = int32(1 + g.intn(sc.stViewMaxRecs))
		w.vRec[i] = int32(g.intn(sc.stRecords - int(w.vLen[i]) + 1))
	}
	// A Flush commits its step's submissions one coalesce window at a time,
	// and each window's adjacent records merge into one stored block.
	w.step, w.blk = w.step[:0], w.blk[:0]
	for at := 0; at < sc.stRecords; {
		n := min(sc.stRecords-at, sc.stFlush*3/4+g.intn(sc.stFlush/4+1))
		w.step = append(w.step, n)
		for b := 0; b < n; b += sc.stWindow {
			w.blk = append(w.blk, at+b)
		}
		at += n
	}
	w.blk = append(w.blk, sc.stRecords)
	nblk := len(w.blk) - 1

	// Write phase.
	if err := rk.begin(); err != nil {
		return err
	}
	pm, err := rk.mmap(phStore, stPath, w.asyncOpts...)
	if err != nil {
		return err
	}
	if err := rk.alloc(phStore, pm, stID, uint64(sc.stRecords*e)); err != nil {
		return err
	}
	w.cnt[0] = uint64(e)
	recShape := shape{bytes: w.recBytes(), raw: true}
	flushShape := shape{raw: true, ndims: 1, recB: blockListBytes(nblk/2, 1)}
	k := 0
	for _, n := range w.step {
		for i := 0; i < n; i, k = i+1, k+1 {
			buf := w.ring[k%sc.stRing]
			buf[0] = stamp(r, k)
			w.offs[0] = uint64(k * e)
			recShape.tag = uint64(k)
			t := rk.opBegin()
			w.futs[i] = pmemcpy.StoreSubAsync(pm, stID, buf, w.offs, w.cnt)
			rk.opEnd(t, kStoreAsync, phStore, recShape, nil)
		}
		flushShape.bytes, flushShape.frags, flushShape.tag = n*w.recBytes(), n, uint64(n)
		flushShape.blocks = (n + sc.stWindow - 1) / sc.stWindow
		t := rk.opBegin()
		err := pm.Flush(ctx)
		rk.opEnd(t, kFlush, phStore, flushShape, err)
		// A submission's outcome lives on its Future.
		for _, f := range w.futs[:n] {
			if f.Wait(ctx) != nil {
				rk.t.failed[kStoreAsync]++
			}
		}
	}
	t := rk.opBegin()
	err = pm.Drain(ctx)
	rk.opEnd(t, kDrain, phStore, shape{raw: true}, err)
	if err := rk.munmap(phStore, pm); err != nil {
		return err
	}
	if err := rk.end(phStore); err != nil {
		return err
	}

	// Read phase, on a synchronous handle.
	if err := rk.begin(); err != nil {
		return err
	}
	if pm, err = rk.mmap(phLoad, stPath, w.syncOpts...); err != nil {
		return err
	}
	for b := 0; b < nblk; b++ {
		w.view(rk, pm, r, w.blk[b], w.blk[b+1]-w.blk[b])
	}
	for i := range w.vRec {
		w.view(rk, pm, r, int(w.vRec[i]), int(w.vLen[i]))
	}
	w.cnt[0] = uint64(2 * e)
	for b := 0; b < nblk-1; b++ {
		k0 := w.blk[b+1] - 1
		w.offs[0] = uint64(k0 * e)
		sh := shape{bytes: 2 * w.recBytes(), tag: uint64(k0), blocks: 2, raw: true, ndims: 1}
		sh.counts[0], sh.isCnts[0] = uint64(sc.stWindow*e), uint64(e)
		t := rk.opBegin()
		err := pmemcpy.LoadSub(pm, stID, w.dst[b], w.offs, w.cnt)
		w.dOK[b] = rk.opEnd(t, kLoadBlock, phLoad, sh, err)
	}
	if rk.st.spaceRound(r) {
		rk.st.sampleSpace(pm, int64(sc.stRecords*w.recBytes()))
	}
	if err := rk.munmap(phLoad, pm); err != nil {
		return err
	}
	if err := rk.end(phLoad); err != nil {
		return err
	}

	// Verify, untimed: the copies the timed loads made, then every byte the
	// timed views covered, re-read through the same view calls.
	for b := 0; b < nblk-1; b++ {
		if w.dOK[b] && !w.matches(w.dst[b], r, w.blk[b+1]-1) {
			rk.mismatch(kLoadBlock)
		}
		clear(w.dst[b])
	}
	if err := w.verifyViews(rk, r); err != nil {
		return err
	}
	return removePool(rk, stPath)
}

func (w *stream) verifyViews(rk *rankCtx, r int) error {
	sc := w.sc
	pm, err := pmemcpy.Mmap(rk.c, rk.st.node, stPath, w.syncOpts...)
	if err != nil {
		return fatal("Mmap for verification", err)
	}
	check := func(k0, recs int) {
		w.offs[0], w.cnt[0] = uint64(k0*sc.stElems), uint64(recs*sc.stElems)
		v, err := pmemcpy.LoadView[float64](pm, stID, w.offs, w.cnt)
		if err != nil {
			rk.mismatch(kLoadView)
			return
		}
		if data, err := v.Data(); err != nil || !w.matches(data, r, k0) {
			rk.mismatch(kLoadView)
		}
		v.Close()
	}
	for b := 0; b+1 < len(w.blk); b++ {
		check(w.blk[b], w.blk[b+1]-w.blk[b])
	}
	for i := range w.vRec {
		check(int(w.vRec[i]), int(w.vLen[i]))
	}
	if err := pm.Munmap(); err != nil {
		return fatal("Munmap after verification", err)
	}
	return nil
}
