package main

import (
	"bytes"
	"fmt"
	"math"

	"pmemcpy"
	"pmemcpy/internal/bytesview"
)

// domain3d is the paper's Figure 6/7 shape at host scale: 2 ranks, default
// options, d3Arrays float64 arrays; each rank stores, then reads back, its
// own block of every array. A phase is Mmap … Munmap, the paper's timed
// window. Bandwidth-bound: copy, bp4 encode/min-max and CRC do nearly all
// the work, so a per-op metadata optimisation must show no change here.
type domain3d struct {
	noEpoch
	sc   *scale
	ids  []string
	dims []uint64
	src  [maxRanks][][]float64 // the model: what each rank stores
	dst  [maxRanks][][]float64
	ok   [maxRanks][]bool
	offs [maxRanks][]uint64
	cnt  []uint64
}

const d3Path = "/domain3d.pool"

func (w *domain3d) name() string { return "domain3d" }
func (w *domain3d) ranks() int   { return 2 }
func (w *domain3d) keys() int    { return 2 * w.sc.d3Arrays }

func (w *domain3d) blockBytes() int64 { return int64(elems(w.sc.d3Block)) * 8 }
func (w *domain3d) maxOpBytes() int64 { return w.blockBytes() }

// devBytes leaves the default pool (3/4 of the device) room for every block
// plus headers; a fresh pool is zeroed on each Mmap, so it is kept tight.
func (w *domain3d) devBytes() int64 {
	data := int64(w.ranks()*w.sc.d3Arrays) * w.blockBytes()
	return data*3/2 + 48<<20
}

func (w *domain3d) prepare(st *runState) {
	b := w.sc.d3Block
	w.dims = []uint64{2 * b[0], b[1], b[2]}
	w.cnt = b[:]
	for a := 0; a < w.sc.d3Arrays; a++ {
		w.ids = append(w.ids, fmt.Sprintf("field%02d", a))
	}
	for r := 0; r < w.ranks(); r++ {
		w.offs[r] = []uint64{uint64(r) * b[0], 0, 0}
		w.ok[r] = make([]bool, w.sc.d3Arrays)
		g := newRNG(st.seed, 1, uint64(r))
		for a := 0; a < w.sc.d3Arrays; a++ {
			s := make([]float64, elems(b))
			g.fill(s)
			w.src[r] = append(w.src[r], s)
			w.dst[r] = append(w.dst[r], make([]float64, elems(b)))
		}
	}
}

func (w *domain3d) shape(r, a int) shape {
	return shape{
		bytes: int(w.blockBytes()), tag: uint64(a)<<52 ^ math.Float64bits(w.src[r][a][0])>>12,
		counts: w.sc.d3Block, isCnts: w.sc.d3Block, ndims: 3,
		blocks: 1, gets: 1, recB: blockListBytes(w.ranks(), 3),
	}
}

func (w *domain3d) round(rk *rankCtx, r int) error {
	me := rk.rank
	// Write phase.
	if err := rk.begin(); err != nil {
		return err
	}
	pm, err := rk.mmap(phStore, d3Path)
	if err != nil {
		return err
	}
	for _, id := range w.ids {
		if err := rk.alloc(phStore, pm, id, w.dims...); err != nil {
			return err
		}
	}
	for a, id := range w.ids {
		t := rk.opBegin()
		err := pmemcpy.StoreSub(pm, id, w.src[me][a], w.offs[me], w.cnt)
		rk.opEnd(t, kStoreBlock, phStore, w.shape(me, a), err)
	}
	if err := rk.munmap(phStore, pm); err != nil {
		return err
	}
	if err := rk.end(phStore); err != nil {
		return err
	}

	// Read phase, on a re-opened handle.
	if err := rk.begin(); err != nil {
		return err
	}
	if pm, err = rk.mmap(phLoad, d3Path); err != nil {
		return err
	}
	ok := w.ok[me]
	for a, id := range w.ids {
		t := rk.opBegin()
		err := pmemcpy.LoadSub(pm, id, w.dst[me][a], w.offs[me], w.cnt)
		ok[a] = rk.opEnd(t, kLoadBlock, phLoad, w.shape(me, a), err)
	}
	if rk.st.spaceRound(r) {
		live := int64(w.ranks()*w.sc.d3Arrays) * w.blockBytes()
		if err := rk.quiesce(func() { rk.st.sampleSpace(pm, live) }); err != nil {
			return err
		}
	}
	if err := rk.munmap(phLoad, pm); err != nil {
		return err
	}
	if err := rk.end(phLoad); err != nil {
		return err
	}

	// Verify against the model and poison the buffers for the next round.
	for a := range w.ids {
		if ok[a] && !bytes.Equal(bytesview.Bytes(w.dst[me][a]), bytesview.Bytes(w.src[me][a])) {
			rk.mismatch(kLoadBlock)
		}
		clear(w.dst[me][a])
	}
	return removePool(rk, d3Path)
}
