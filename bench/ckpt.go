package main

import (
	"bytes"
	"fmt"
	"math"

	"pmemcpy"
	"pmemcpy/internal/bytesview"
)

// ckpt is checkpoint/restart with diagnostics beside it (Fridman et al.'s
// HPC uses of PMEM): 2 ranks, default options, fresh pool per round. Each of
// ckSteps timesteps has a write phase — every rank overwrites its block of
// every field and stores a step scalar — and a read phase — every rank loads
// the half-shifted block of every field (a gather across both writers' blocks)
// and takes its MinMax. After the last step the handle is closed and
// re-mapped and each rank reads the *other* rank's blocks: a restart with a
// changed decomposition, counted in the read phase.
//
// It drives the same core/pmdk/nd layers as the other workloads differently —
// reads beside writes on the same ids, block-cache invalidate-then-miss,
// multi-block gather plans, overwrite churn, reopen — so a write-path gain
// paid for by reads, space or recovery shows here.
//
// With crash set (a WithCrashTracking node) the restart is replaced by the
// durability epilogue: power is cut after the last step's barrier with the
// handles still mapped, the store is re-mapped, and every acknowledged block
// and scalar must read back.
type ckpt struct {
	noEpoch
	sc    *scale
	crash bool

	ids      []string
	stepIDs  [maxRanks]string
	dims     []uint64
	cnt      []uint64
	offs     [maxRanks][]uint64
	shifted  []uint64
	data     [][][maxRanks][]float64 // [step][field][rank]
	min, max [][]float64             // [step][field]: running range over all blocks stored so far
	dst      [maxRanks][][]float64
	ok       [maxRanks][]bool
}

const ckPath = "/ckpt.pool"

func (w *ckpt) name() string { return "ckpt-restart" }
func (w *ckpt) ranks() int   { return 2 }
func (w *ckpt) keys() int    { return 2*w.sc.ckFields + 2 }

func (w *ckpt) blockBytes() int64 { return int64(elems(w.sc.ckBlock)) * 8 }
func (w *ckpt) maxOpBytes() int64 { return w.blockBytes() }

// devBytes: overwrites append (the shadowed block is only reclaimed by
// Compact at this commit), so a round keeps every step's blocks.
func (w *ckpt) devBytes() int64 {
	data := int64(w.sc.ckSteps*w.sc.ckFields*w.ranks()) * w.blockBytes()
	return data*3/2 + 32<<20
}

func (w *ckpt) liveBytes() int64 {
	return int64(w.sc.ckFields*w.ranks())*w.blockBytes() + int64(w.ranks())*8
}

func (w *ckpt) prepare(st *runState) {
	sc := w.sc
	b := sc.ckBlock
	w.dims = []uint64{2 * b[0], b[1], b[2]}
	w.cnt = b[:]
	w.shifted = []uint64{b[0] / 2, 0, 0}
	for f := 0; f < sc.ckFields; f++ {
		w.ids = append(w.ids, fmt.Sprintf("ckpt/field%d", f))
	}
	for r := 0; r < w.ranks(); r++ {
		w.offs[r] = []uint64{uint64(r) * b[0], 0, 0}
		w.stepIDs[r] = fmt.Sprintf("step/%d", r)
		w.ok[r] = make([]bool, sc.ckFields)
		for f := 0; f < sc.ckFields; f++ {
			w.dst[r] = append(w.dst[r], make([]float64, elems(b)))
		}
	}
	g := newRNG(st.seed, 4)
	w.data = make([][][maxRanks][]float64, sc.ckSteps)
	w.min = make([][]float64, sc.ckSteps)
	w.max = make([][]float64, sc.ckSteps)
	for s := range w.data {
		w.data[s] = make([][maxRanks][]float64, sc.ckFields)
		w.min[s] = make([]float64, sc.ckFields)
		w.max[s] = make([]float64, sc.ckFields)
		for f := range w.data[s] {
			mn, mx := math.Inf(1), math.Inf(-1)
			if s > 0 {
				mn, mx = w.min[s-1][f], w.max[s-1][f]
			}
			for r := 0; r < w.ranks(); r++ {
				v := make([]float64, elems(b))
				g.fill(v)
				// Shift each step's values so a stale range is detectable.
				for i := range v {
					v[i] += float64(s)
					mn, mx = math.Min(mn, v[i]), math.Max(mx, v[i])
				}
				w.data[s][f][r] = v
			}
			w.min[s][f], w.max[s][f] = mn, mx
		}
	}
}

func (w *ckpt) blockShape(s, f, r int) shape {
	return shape{
		bytes: int(w.blockBytes()), tag: uint64(s)<<40 ^ uint64(f)<<32 ^ math.Float64bits(w.data[s][f][r][0])>>12,
		counts: w.sc.ckBlock, isCnts: w.sc.ckBlock, ndims: 3,
		gets: 1, recB: blockListBytes(w.ranks()*(s+1), 3),
	}
}

func (w *ckpt) round(rk *rankCtx, r int) error {
	sc := w.sc
	me, other := rk.rank, 1-rk.rank
	half := int(w.blockBytes()) / 2
	var pm *pmemcpy.PMEM
	for s := 0; s < sc.ckSteps; s++ {
		// Write phase: overwrite my block of every field, store the step.
		if err := rk.begin(); err != nil {
			return err
		}
		if s == 0 {
			var err error
			if pm, err = rk.mmap(phStore, ckPath); err != nil {
				return err
			}
			for _, id := range w.ids {
				if err := rk.alloc(phStore, pm, id, w.dims...); err != nil {
					return err
				}
			}
		}
		for f, id := range w.ids {
			t := rk.opBegin()
			err := pmemcpy.StoreSub(pm, id, w.data[s][f][me], w.offs[me], w.cnt)
			rk.opEnd(t, kStoreBlock, phStore, w.blockShape(s, f, me), err)
		}
		t := rk.opBegin()
		err := pmemcpy.Store(pm, w.stepIDs[me], float64(s))
		rk.opEnd(t, kStoreScalar, phStore, shape{bytes: 8, tag: uint64(s), recB: 21}, err)
		if err := rk.end(phStore); err != nil {
			return err
		}

		// Read phase: the half-shifted block of every field, and its range.
		if err := rk.begin(); err != nil {
			return err
		}
		var mn, mx [16]float64
		var mmOK [16]bool
		for f, id := range w.ids {
			sh := w.blockShape(s, f, me)
			sh.recB = 0
			sh.isCnts[0] /= 2
			sh.blocks = w.ranks() * (s + 1) // shadowed versions are gathered too
			t := rk.opBegin()
			err := pmemcpy.LoadSub(pm, id, w.dst[me][f], w.shifted, w.cnt)
			w.ok[me][f] = rk.opEnd(t, kLoadBlock, phLoad, sh, err)
			t = rk.opBegin()
			mn[f], mx[f], err = pmemcpy.MinMax(pm, id)
			mmOK[f] = rk.opEnd(t, kMinMax, phLoad, shape{tag: uint64(f), gets: 0}, err)
		}
		if err := rk.end(phLoad); err != nil {
			return err
		}
		for f := range w.ids {
			got := bytesview.Bytes(w.dst[me][f])
			lo, hi := bytesview.Bytes(w.data[s][f][0]), bytesview.Bytes(w.data[s][f][1])
			if w.ok[me][f] && !(bytes.Equal(got[:half], lo[half:]) && bytes.Equal(got[half:], hi[:half])) {
				rk.mismatch(kLoadBlock)
			}
			clear(w.dst[me][f])
			if mmOK[f] && (mn[f] != w.min[s][f] || mx[f] != w.max[s][f]) {
				rk.mismatch(kMinMax)
			}
		}
	}
	last := sc.ckSteps - 1
	if w.crash {
		return w.crashAndRecover(rk, last)
	}

	// Restart with a changed decomposition: reopen, read the other rank's
	// blocks and step scalar.
	if rk.st.spaceRound(r) {
		if err := rk.quiesce(func() { rk.st.sampleSpace(pm, w.liveBytes()) }); err != nil {
			return err
		}
	}
	if err := rk.begin(); err != nil {
		return err
	}
	if err := rk.munmap(phLoad, pm); err != nil {
		return err
	}
	pm, err := rk.mmap(phLoad, ckPath)
	if err != nil {
		return err
	}
	for f, id := range w.ids {
		sh := w.blockShape(last, f, other)
		sh.recB, sh.blocks = 0, sc.ckSteps
		t := rk.opBegin()
		err := pmemcpy.LoadSub(pm, id, w.dst[me][f], w.offs[other], w.cnt)
		w.ok[me][f] = rk.opEnd(t, kLoadBlock, phLoad, sh, err)
	}
	t := rk.opBegin()
	step, err := pmemcpy.Load[float64](pm, w.stepIDs[other])
	stepOK := rk.opEnd(t, kLoadScalar, phLoad, shape{bytes: 8, tag: uint64(other), gets: 1}, err)
	if err := rk.munmap(phLoad, pm); err != nil {
		return err
	}
	if err := rk.end(phLoad); err != nil {
		return err
	}
	for f := range w.ids {
		if w.ok[me][f] && !bytes.Equal(bytesview.Bytes(w.dst[me][f]), bytesview.Bytes(w.data[last][f][other])) {
			rk.mismatch(kLoadBlock)
		}
		clear(w.dst[me][f])
	}
	if stepOK && step != float64(last) {
		rk.mismatch(kLoadScalar)
	}
	return removePool(rk, ckPath)
}

// crashAndRecover is the durability epilogue of one round: every store of
// the last step was acknowledged, so after a power cut that loses every
// unpersisted cacheline each must still read back. Untimed.
func (w *ckpt) crashAndRecover(rk *rankCtx, last int) error {
	n := rk.st.node
	if err := rk.quiesce(func() { pmemcpy.SimulateCrash(n, pmemcpy.CrashLoseAll, nil) }); err != nil {
		return err
	}
	// The pre-crash handles are dead; recovery runs inside this Mmap.
	pm, err := pmemcpy.Mmap(rk.c, n, ckPath)
	if err != nil {
		return fatal("Mmap after crash", err)
	}
	me := rk.rank
	for f, id := range w.ids {
		rk.t.attempted[kDurable]++
		err := pmemcpy.LoadSub(pm, id, w.dst[me][f], w.offs[me], w.cnt)
		if err != nil || !bytes.Equal(bytesview.Bytes(w.dst[me][f]), bytesview.Bytes(w.data[last][f][me])) {
			rk.t.failed[kDurable]++
		}
		clear(w.dst[me][f])
	}
	rk.t.attempted[kDurable]++
	if step, err := pmemcpy.Load[float64](pm, w.stepIDs[me]); err != nil || step != float64(last) {
		rk.t.failed[kDurable]++
	}
	if err := pm.Munmap(); err != nil {
		return fatal("Munmap after crash", err)
	}
	return removePool(rk, ckPath)
}
