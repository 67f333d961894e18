package main

import (
	"fmt"
	"math"
	"time"

	"pmemcpy"
)

// smallkv is the mirror image of domain3d: many tiny values on one
// long-lived handle, so pmdk's tx/alloc/hashtable and core's fixed per-op
// cost are everything and device bandwidth nothing. This is where the
// paper's "software overhead" thesis is measured. ids are 1/2 float64
// scalars, 1/4 small arrays, 1/4 strings, 4x the default hashtable bucket
// count so chains are walked. A round overwrites kvOps seeded-uniform keys,
// then loads kvOps seeded-uniform keys; every kvChurnEvery-th round also
// deletes and re-stores kvChurn keys.
//
// Overwrites leak the shadowed payload block and lengthen array block lists
// at this commit, so per-op cost drifts with a handle's age. To keep rounds
// comparable however long the run is, a handle lives for one epoch
// (epochRounds rounds) on a fresh pool pre-populated from the model; the
// drift is then the same sawtooth in every run. One rank in the benchmark
// proper (nranks 2 is used only for core.contention_x): with 2 ranks the
// same loop ran 2.4x slower per op with ±40 % run-to-run spread.
type smallkv struct {
	sc     *scale
	nranks int
	cnt    []uint64 // an array id's whole extent
	part   [maxRanks]*kvPart
}

// kvPart is one rank's partition of the keyspace, its model and its
// per-round scratch.
type kvPart struct {
	ids []string
	// The model: current value of every id, by kind.
	scalar []float64
	array  []float64 // kvArrayElems per id (array ids only use their slot)
	str    []string
	blocks []uint16 // stored blocks under each array id in this epoch

	pm *pmemcpy.PMEM

	// One round's pre-generated op stream and result slots.
	wKey, rKey []int32
	wScalar    []float64
	wArray     []float64
	wStr       []string
	churn      []int32
	gScalar    []float64
	gArray     []float64
	gStr       []string
	gOK        []bool
}

const (
	kvScalar = iota // id%4 in {0,1}
	kvArray         // id%4 == 2
	kvString        // id%4 == 3
)

func kvKind(id int) int {
	switch id % 4 {
	case 2:
		return kvArray
	case 3:
		return kvString
	}
	return kvScalar
}

const kvPath = "/smallkv.pool"

var kvOff = []uint64{0}

func (w *smallkv) name() string       { return "smallkv" }
func (w *smallkv) ranks() int         { return w.nranks }
func (w *smallkv) traceByEpoch() bool { return true }

// keys counts the "#dims" companions of the array ids too.
func (w *smallkv) keys() int { return w.nranks * (w.sc.kvIDs + w.sc.kvIDs/4) }

func (w *smallkv) maxOpBytes() int64 { return int64(w.sc.kvArrayElems) * 8 }

// devBytes covers pre-population plus one epoch of leaked overwrites with a
// wide margin; pool exhaustion would show as counted failures.
func (w *smallkv) devBytes() int64 {
	perEpoch := int64(w.sc.epochRounds+w.sc.warmup) * int64(w.sc.kvOps) * 512
	return int64(w.nranks)*(int64(w.sc.kvIDs)*1024+perEpoch) + 64<<20
}

func (w *smallkv) liveBytes() int64 {
	n := int64(w.sc.kvIDs)
	return int64(w.nranks) * (n/2*8 + n/4*int64(w.sc.kvArrayElems)*8 + n/4*int64(w.sc.kvStringBytes))
}

func (w *smallkv) prepare(st *runState) {
	sc := w.sc
	w.cnt = []uint64{uint64(sc.kvArrayElems)}
	for r := 0; r < w.nranks; r++ {
		g := newRNG(st.seed, 2, uint64(r))
		p := &kvPart{
			ids:    make([]string, sc.kvIDs),
			scalar: make([]float64, sc.kvIDs),
			array:  make([]float64, sc.kvIDs*sc.kvArrayElems),
			str:    make([]string, sc.kvIDs),
			blocks: make([]uint16, sc.kvIDs),

			wKey: make([]int32, sc.kvOps), rKey: make([]int32, sc.kvOps),
			wScalar: make([]float64, sc.kvOps+sc.kvChurn),
			wArray:  make([]float64, (sc.kvOps+sc.kvChurn)*sc.kvArrayElems),
			wStr:    make([]string, sc.kvOps+sc.kvChurn),
			churn:   make([]int32, 0, sc.kvChurn),
			gScalar: make([]float64, sc.kvOps),
			gArray:  make([]float64, sc.kvOps*sc.kvArrayElems),
			gStr:    make([]string, sc.kvOps),
			gOK:     make([]bool, sc.kvOps),
		}
		for i := range p.ids {
			p.ids[i] = fmt.Sprintf("kv/%d/%06d", r, i)
			switch kvKind(i) {
			case kvScalar:
				p.scalar[i] = g.float()
			case kvArray:
				g.fill(p.arr(sc, p.array, i))
			case kvString:
				p.str[i] = randString(g, sc.kvStringBytes)
			}
		}
		w.part[r] = p
	}
}

func (p *kvPart) arr(sc *scale, base []float64, slot int) []float64 {
	return base[slot*sc.kvArrayElems : (slot+1)*sc.kvArrayElems]
}

func randString(g *rng, n int) string {
	b := make([]byte, n)
	for i := range b {
		b[i] = 'a' + byte(g.next()%26)
	}
	return string(b)
}

// openEpoch maps a fresh pool and pre-populates it with the model's current
// values. Untimed as a round; the first epoch's share is part of setup_s.
func (w *smallkv) openEpoch(rk *rankCtx) error {
	p := w.part[rk.rank]
	pm, err := rk.mmap(phStore, kvPath)
	if err != nil {
		return err
	}
	p.pm = pm
	cnt := w.cnt
	for i, id := range p.ids {
		var err error
		switch kvKind(i) {
		case kvScalar:
			err = pmemcpy.Store(pm, id, p.scalar[i])
		case kvArray:
			if err = pmemcpy.Alloc[float64](pm, id, cnt[0]); err == nil {
				err = pmemcpy.StoreSub(pm, id, p.arr(w.sc, p.array, i), kvOff, cnt)
			}
			p.blocks[i] = 1
		case kvString:
			err = pmemcpy.StoreString(pm, id, p.str[i])
		}
		if err != nil {
			return fatal("pre-populate "+id, err)
		}
	}
	if rk.tr != nil && rk.rank == 0 {
		rk.st.layer.absorb(pm, -1) // baseline: pre-population is not a phase
	}
	return nil
}

func (w *smallkv) closeEpoch(rk *rankCtx) error {
	p := w.part[rk.rank]
	if p.pm == nil {
		return nil
	}
	if err := rk.quiesce(func() { rk.st.sampleSpace(p.pm, w.liveBytes()) }); err != nil {
		return err
	}
	if err := rk.munmap(phStore, p.pm); err != nil {
		return err
	}
	p.pm = nil
	return removePool(rk, kvPath)
}

func (w *smallkv) storeShape(p *kvPart, id int, word uint64) shape {
	sh := shape{tag: uint64(id)<<20 ^ word, gets: 1}
	switch kvKind(id) {
	case kvScalar:
		sh.bytes, sh.recB = 8, 21
	case kvString:
		sh.bytes, sh.recB, sh.str = w.sc.kvStringBytes, 21, true
	case kvArray:
		sh.bytes = w.sc.kvArrayElems * 8
		sh.counts[0], sh.isCnts[0], sh.ndims = uint64(w.sc.kvArrayElems), uint64(w.sc.kvArrayElems), 1
		sh.recB = blockListBytes(int(p.blocks[id])+1, 1)
	}
	return sh
}

func (w *smallkv) loadShape(p *kvPart, id int) shape {
	sh := w.storeShape(p, id, 0)
	sh.recB = 0
	if kvKind(id) == kvArray {
		sh.blocks = int(p.blocks[id])
	}
	return sh
}

// store issues one overwrite of id with the slot-th pre-generated value.
func (w *smallkv) store(rk *rankCtx, p *kvPart, id, slot int) {
	name := p.ids[id]
	var err error
	var k kind
	var word uint64
	t := rk.opBegin()
	switch kvKind(id) {
	case kvScalar:
		k, word = kStoreScalar, math.Float64bits(p.wScalar[slot])
		err = pmemcpy.Store(p.pm, name, p.wScalar[slot])
	case kvArray:
		k = kStoreBlock
		v := p.arr(w.sc, p.wArray, slot)
		word = math.Float64bits(v[0])
		err = pmemcpy.StoreSub(p.pm, name, v, kvOff, w.cnt)
	case kvString:
		k, word = kStoreString, uint64(p.wStr[slot][0])
		err = pmemcpy.StoreString(p.pm, name, p.wStr[slot])
	}
	rk.opEnd(t, k, phStore, w.storeShape(p, id, word), err)
}

// apply makes the model reflect a store that was issued.
func (w *smallkv) apply(p *kvPart, id, slot int) {
	switch kvKind(id) {
	case kvScalar:
		p.scalar[id] = p.wScalar[slot]
	case kvArray:
		copy(p.arr(w.sc, p.array, id), p.arr(w.sc, p.wArray, slot))
		p.blocks[id]++
	case kvString:
		p.str[id] = p.wStr[slot]
	}
}

func (w *smallkv) round(rk *rankCtx, r int) error {
	sc := w.sc
	p := w.part[rk.rank]
	cnt := w.cnt

	// Generate the round's op stream and values from the seed, untimed.
	g := newRNG(rk.st.seed, 3, uint64(rk.rank), uint64(r))
	p.churn = p.churn[:0]
	nw := sc.kvOps
	if sc.kvChurnEvery > 0 && r%sc.kvChurnEvery == sc.kvChurnEvery-1 {
		for i := 0; i < sc.kvChurn; i++ {
			p.churn = append(p.churn, int32(g.intn(sc.kvIDs)))
		}
		nw += sc.kvChurn
	}
	for j := 0; j < nw; j++ {
		id := 0
		if j < sc.kvOps {
			id = g.intn(sc.kvIDs)
			p.wKey[j] = int32(id)
		} else {
			id = int(p.churn[j-sc.kvOps])
		}
		switch kvKind(id) {
		case kvScalar:
			p.wScalar[j] = g.float()
		case kvArray:
			g.fill(p.arr(sc, p.wArray, j))
		case kvString:
			p.wStr[j] = randString(g, sc.kvStringBytes)
		}
	}
	for j := range p.rKey {
		p.rKey[j] = int32(g.intn(sc.kvIDs))
	}

	// Write phase: overwrites, then (some rounds) delete + re-store churn.
	if err := rk.begin(); err != nil {
		return err
	}
	for j := 0; j < sc.kvOps; j++ {
		w.store(rk, p, int(p.wKey[j]), j)
	}
	for i, id := range p.churn {
		t := rk.opBegin()
		_, err := p.pm.Delete(p.ids[id])
		rk.opEnd(t, kDelete, phStore, shape{tag: uint64(id), gets: 1}, err)
		if err != nil {
			return fatal("Delete "+p.ids[id], err)
		}
		if kvKind(int(id)) == kvArray {
			p.blocks[id] = 0
		}
		w.store(rk, p, int(id), sc.kvOps+i)
	}
	if rk.tr != nil && rk.rank == 0 {
		t := time.Now()
		rk.st.layer.absorb(p.pm, phStore)
		rk.paused += time.Since(t)
	}
	if err := rk.end(phStore); err != nil {
		return err
	}
	for j := 0; j < sc.kvOps; j++ {
		w.apply(p, int(p.wKey[j]), j)
	}
	for i, id := range p.churn {
		w.apply(p, int(id), sc.kvOps+i)
	}

	// Read phase.
	if err := rk.begin(); err != nil {
		return err
	}
	for j, id32 := range p.rKey {
		id := int(id32)
		name := p.ids[id]
		var err error
		var k kind
		t := rk.opBegin()
		switch kvKind(id) {
		case kvScalar:
			k = kLoadScalar
			p.gScalar[j], err = pmemcpy.Load[float64](p.pm, name)
		case kvArray:
			k = kLoadBlock
			err = pmemcpy.LoadSub(p.pm, name, p.arr(sc, p.gArray, j), kvOff, cnt)
		case kvString:
			k = kLoadString
			p.gStr[j], err = pmemcpy.LoadString(p.pm, name)
		}
		p.gOK[j] = rk.opEnd(t, k, phLoad, w.loadShape(p, id), err)
		if rk.tr != nil && k == kLoadScalar && j%sampleEvery == 0 {
			rk.paused += rk.tr.apiResidual(p.pm, name)
		}
	}
	if rk.tr != nil && rk.rank == 0 {
		t := time.Now()
		rk.st.layer.absorb(p.pm, phLoad)
		rk.paused += time.Since(t)
	}
	if err := rk.end(phLoad); err != nil {
		return err
	}

	// Verify every load against the model.
	for j, id32 := range p.rKey {
		if !p.gOK[j] {
			continue
		}
		id := int(id32)
		switch kvKind(id) {
		case kvScalar:
			if p.gScalar[j] != p.scalar[id] {
				rk.mismatch(kLoadScalar)
			}
		case kvArray:
			got, want := p.arr(sc, p.gArray, j), p.arr(sc, p.array, id)
			for e := range got {
				if got[e] != want[e] {
					rk.mismatch(kLoadBlock)
					break
				}
			}
			clear(got)
		case kvString:
			if p.gStr[j] != p.str[id] {
				rk.mismatch(kLoadString)
			}
		}
	}
	return nil
}
