package main

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"pmemcpy"
	"pmemcpy/internal/checksum"
	"pmemcpy/internal/nd"
	"pmemcpy/internal/pmdk"
	"pmemcpy/internal/pmem"
	"pmemcpy/internal/serial"
	"pmemcpy/internal/sim"
)

// Tracing from outside. On a traced round the benchmark records a span
// around every public API call it makes, and for every sampleEvery-th call
// (and every Flush/Drain, which are few and carry a whole batch) it replays
// the call's constituent layer calls by hand on a scratch pool of the same
// shape, recording each as a child span. A layer's time is its replayed
// span; what the call took beyond its children is core's self time (the
// residual). No span is added inside product code.

// sampleEvery is the replay sampling stride over a rank's API calls.
const sampleEvery = 16

// shape describes one API call to the accounting and replay code: how many
// user bytes it moved and what the layers under it had to do.
type shape struct {
	bytes int    // user bytes moved
	tag   uint64 // op-stream digest contribution (key, offset, payload word)

	// Block geometry for the nd/serial replays: the stored block's shape and
	// the part of it one gather job copies (equal for whole-block loads).
	counts, isCnts [3]uint64
	ndims          int

	blocks   int  // stored blocks a load gathers from; batches a Flush commits
	frags    int  // submissions coalesced into each block a Flush commits
	gets     int  // metadata hashtable lookups the call makes
	recB     int  // metadata record bytes the call publishes
	raw      bool // identity codec: encode is a plain copy, decode is free
	str      bool // variable-length string value
	fallback bool // view that cannot alias and copies instead
}

// span is one recorded interval. Replayed spans are measured after their
// parent returned, so they lie outside its [start,end]; what nests is the
// duration, not the timestamps.
type span struct {
	ID         int32  `json:"id"`
	Parent     int32  `json:"parent"` // -1: an API call made by the benchmark
	Name       string `json:"name"`
	Layer      string `json:"layer"`
	Rank       int    `json:"rank"`
	Round      int    `json:"round"`
	Call       int    `json:"call"` // index of the API call within the rank's round
	StartNS    int64  `json:"start_ns"`
	EndNS      int64  `json:"end_ns"`
	Replayed   bool   `json:"replayed,omitempty"`
	Sampled    bool   `json:"sampled,omitempty"`     // API call whose ladder was replayed
	ResidualNS int64  `json:"residual_ns,omitempty"` // sampled calls: dur - sum(direct children)
}

// child is one replayed layer call.
type child struct {
	name   string // span name, "<layer>.<what>"
	dur    time.Duration
	bytes  int  // bytes the call covered (per-KB metrics), 0 if not byte-bound
	nested bool // measured for its own metric, not part of the parent's sum
}

// tracer owns the per-rank trace state of a traced run.
type tracer struct {
	epoch time.Time
	ranks [maxRanks]*rankTrace
	// keepRounds is how many traced rounds have their spans written to the
	// span file; later rounds only feed the aggregates.
	keepRounds int
}

func newTracer(w workload, nranks, keepRounds int) (*tracer, error) {
	tr := &tracer{epoch: time.Now(), keepRounds: keepRounds}
	for r := 0; r < nranks; r++ {
		sc, err := newScratch(w.keys(), w.maxOpBytes())
		if err != nil {
			return nil, err
		}
		rt := &rankTrace{tr: tr, rank: r, sc: sc, layer: make(map[string]*layerStat)}
		for ph := range rt.ladder {
			rt.ladder[ph].layer = make(map[string]float64)
		}
		tr.ranks[r] = rt
	}
	return tr, nil
}

// layerStat gathers the replayed spans of one name.
type layerStat struct {
	durs      []float64 // every span's duration, ns
	ns, bytes float64   // totals over the byte-bound spans, for per-KB metrics
}

func (l *layerStat) median() float64 {
	if l == nil {
		return 0
	}
	return median(l.durs)
}

func (l *layerStat) nsPerKB() float64 {
	if l == nil {
		return 0
	}
	return ratio(l.ns, l.bytes/1024)
}

// ladderTotals are the weighted sums behind the printed ladder: sampled
// calls stand for sampleEvery calls, Flush/Drain for themselves.
type ladderTotals struct {
	span, resid float64
	layer       map[string]float64
}

// rankTrace is one rank's recorder. Ranks never share one, so recording
// takes no lock.
type rankTrace struct {
	tr   *tracer
	rank int
	sc   *scratch

	round, call, kept int
	seq               int // calls eligible for replay so far, over all rounds
	keep              bool
	spans             []span

	opNS     [nPhases][]float64     // every op's span, for mean and p99
	callNS   [nPhases]time.Duration // all calls except Mmap/Munmap
	mmapNS   []float64
	munmapNS []float64
	apiResid []float64 // public load minus the core call it wraps

	layer  map[string]*layerStat // replayed spans by name
	ladder [nPhases]ladderTotals
}

// merge folds another rank's aggregates (not its spans) into rt.
func (rt *rankTrace) merge(o *rankTrace) {
	for ph := 0; ph < nPhases; ph++ {
		rt.opNS[ph] = append(rt.opNS[ph], o.opNS[ph]...)
		rt.callNS[ph] += o.callNS[ph]
		rt.ladder[ph].span += o.ladder[ph].span
		rt.ladder[ph].resid += o.ladder[ph].resid
		for k, v := range o.ladder[ph].layer {
			rt.ladder[ph].layer[k] += v
		}
	}
	rt.mmapNS = append(rt.mmapNS, o.mmapNS...)
	rt.munmapNS = append(rt.munmapNS, o.munmapNS...)
	rt.apiResid = append(rt.apiResid, o.apiResid...)
	for k, v := range o.layer {
		l := rt.stat(k)
		l.durs = append(l.durs, v.durs...)
		l.ns += v.ns
		l.bytes += v.bytes
	}
	rt.sc.encB += o.sc.encB
	rt.sc.userB += o.sc.userB
	rt.sc.runs += o.sc.runs
	rt.sc.loads += o.sc.loads
}

func (rt *rankTrace) stat(name string) *layerStat {
	l := rt.layer[name]
	if l == nil {
		l = new(layerStat)
		rt.layer[name] = l
	}
	return l
}

func (rt *rankTrace) startRound(r int) {
	rt.round, rt.call = r, 0
	rt.keep = rt.kept < rt.tr.keepRounds
	if rt.keep {
		rt.kept++
	}
}

func (rt *rankTrace) addSpan(s span) int32 {
	s.ID = int32(len(rt.spans))
	s.Rank, s.Round = rt.rank, rt.round
	rt.spans = append(rt.spans, s)
	return s.ID
}

// record files the API call [t0,t1] and, if it is sampled, replays its
// ladder. It returns the time the replay took, which the caller excludes
// from the open phase.
func (rt *rankTrace) record(t0, t1 time.Time, k kind, ph int, sh shape) time.Duration {
	dur := t1.Sub(t0)
	call := rt.call
	rt.call++
	switch k {
	case kMmap:
		rt.mmapNS = append(rt.mmapNS, float64(dur))
	case kMunmap:
		rt.munmapNS = append(rt.munmapNS, float64(dur))
	default:
		rt.callNS[ph] += dur
		if k.isOp() {
			rt.opNS[ph] = append(rt.opNS[ph], float64(dur))
		}
	}
	heavy := k == kFlush || k == kDrain
	sampled := heavy
	if !heavy && k != kMmap && k != kMunmap {
		// The stride runs over all rounds, so rounds of fewer than
		// sampleEvery calls still get every call position sampled in turn.
		sampled = rt.seq%sampleEvery == 0
		rt.seq++
	}
	parent := int32(-1)
	if rt.keep {
		parent = rt.addSpan(span{
			Parent: -1, Name: kindNames[k], Layer: "pmemcpy", Call: call,
			StartNS: int64(t0.Sub(rt.tr.epoch)), EndNS: int64(t1.Sub(rt.tr.epoch)),
			Sampled: sampled,
		})
	}
	if !sampled {
		return 0
	}
	tR := time.Now()
	kids := rt.sc.replay(k, sh)
	var sum time.Duration
	for _, c := range kids {
		if !c.nested {
			sum += c.dur
		}
	}
	resid := dur - sum
	weight := float64(sampleEvery)
	if heavy {
		weight = 1
	}
	l := &rt.ladder[ph]
	l.span += weight * float64(dur)
	l.resid += weight * float64(resid)
	at := tR
	prev := parent
	for _, c := range kids {
		ls := rt.stat(c.name)
		ls.durs = append(ls.durs, float64(c.dur))
		if c.bytes > 0 {
			ls.ns += float64(c.dur)
			ls.bytes += float64(c.bytes)
		}
		if !c.nested {
			l.layer[c.name] += weight * float64(c.dur)
		}
		if rt.keep {
			// A nested child hangs under the replayed span just before it.
			under := parent
			if c.nested {
				under = prev
			}
			prev = rt.addSpan(span{
				Parent: under, Name: c.name, Layer: layerOf(c.name), Call: call, Replayed: true,
				StartNS: int64(at.Sub(rt.tr.epoch)), EndNS: int64(at.Add(c.dur).Sub(rt.tr.epoch)),
			})
			at = at.Add(c.dur)
		}
	}
	if rt.keep {
		rt.spans[parent].ResidualNS = int64(resid)
	}
	return time.Since(tR)
}

// apiResidual measures what the generic public wrapper adds over the core
// method it calls, on an idempotent load of id: the same load is issued
// through both and the difference recorded. Traced rounds only; the two
// extra loads are not counted as ops.
func (rt *rankTrace) apiResidual(pm *pmemcpy.PMEM, id string) time.Duration {
	tR := time.Now()
	t0 := time.Now()
	_, errPub := pmemcpy.Load[float64](pm, id)
	t1 := time.Now()
	_, errCore := pm.LoadDatum(id)
	t2 := time.Now()
	if errPub == nil && errCore == nil {
		rt.apiResid = append(rt.apiResid, float64(t1.Sub(t0)-t2.Sub(t1)))
	}
	return time.Since(tR)
}

func layerOf(name string) string {
	layer, _, _ := strings.Cut(name, ".")
	return layer
}

// scratch is the stand-in pool the replays run on: a device, pool and
// metadata hashtable of their own, holding as many keys as the workload's
// store, so a replayed layer call does the same work as the one inside the
// library without touching the measured store.
type scratch struct {
	clk   *sim.Clock
	m     *pmem.Mapping
	pool  *pmdk.Pool
	ht    *pmdk.Hashtable
	key   []byte
	rec   []byte
	nkeys int
	blk   pmdk.PMID // standing block the encode/copy/persist replays write
	blkN  int64
	dram  []byte // source and destination for the DRAM side of replays
	bp4   serial.Codec
	point pmem.PointID

	encoded  [3]uint64 // shape currently encoded in blk (decode replays)
	runCache map[[6]uint64]int

	encB, userB float64 // encoded vs user bytes over the replayed fills
	runs, loads float64 // nd runs over the replayed block loads
}

const scratchKeyFmt = "scratch/%07d"

func newScratch(nkeys int, maxOp int64) (*scratch, error) {
	clk := new(sim.Clock)
	blkN := maxOp + 4096
	size := 3*blkN + int64(nkeys)*512 + 32<<20
	n := pmemcpy.NewNode(pmemcpy.DefaultConfig(), size+8<<20)
	f, err := n.FS.Create(clk, "/scratch.pool")
	if err != nil {
		return nil, err
	}
	if err := f.Truncate(clk, size); err != nil {
		return nil, err
	}
	m, err := f.Mmap(clk, false)
	if err != nil {
		return nil, err
	}
	po := pmdk.DefaultOptions()
	po.Arenas = 8 // what core.Mmap pins
	pool, err := pmdk.Create(clk, m, &po)
	if err != nil {
		return nil, err
	}
	tx, err := pool.Begin(clk)
	if err != nil {
		return nil, err
	}
	htID, err := pmdk.CreateHashtable(tx, pmdk.DefaultBuckets)
	if err != nil {
		return nil, err
	}
	blk, err := pool.Alloc(tx, blkN)
	if err != nil {
		return nil, err
	}
	if err := tx.Commit(); err != nil {
		return nil, err
	}
	ht, err := pmdk.OpenHashtable(clk, pool, htID)
	if err != nil {
		return nil, err
	}
	val := make([]byte, 24)
	for i := 0; i < nkeys; i++ {
		if err := ht.Put(clk, []byte(fmt.Sprintf(scratchKeyFmt, i)), val); err != nil {
			return nil, err
		}
	}
	bp4, err := serial.Get("bp4")
	if err != nil {
		return nil, err
	}
	return &scratch{
		clk: clk, m: m, pool: pool, ht: ht, nkeys: nkeys,
		key: []byte(fmt.Sprintf(scratchKeyFmt, nkeys/2)), rec: make([]byte, 64<<10),
		blk: blk, blkN: blkN, dram: make([]byte, blkN), bp4: bp4,
		point:    pmem.RegisterPoint("bench.replay"),
		runCache: make(map[[6]uint64]int),
	}, nil
}

// rebuild replaces the scratch pool with a fresh one of the same shape,
// keeping the totals gathered so far.
func (s *scratch) rebuild() {
	fresh, err := newScratch(s.nkeys, s.blkN-4096)
	must(err)
	fresh.encB, fresh.userB, fresh.runs, fresh.loads = s.encB, s.userB, s.runs, s.loads
	fresh.runCache = s.runCache
	*s = *fresh
}

func timed(f func()) time.Duration {
	t := time.Now()
	f()
	return time.Since(t)
}

// Replay errors are bugs in the benchmark's scratch sizing, not measured
// failures, so they panic.
func must(err error) {
	if err != nil {
		panic(fmt.Sprintf("bench: layer replay failed: %v", err))
	}
}

// txAlloc replays the allocation transaction of a store: Begin, Alloc of n
// bytes, Commit. The block is freed again outside the timed calls.
func (s *scratch) txAlloc(out []child, n int64) []child {
	var tx *pmdk.Tx
	var id pmdk.PMID
	var err error
	begin := timed(func() { tx, err = s.pool.Begin(s.clk) })
	must(err)
	alloc := timed(func() { id, err = s.pool.Alloc(tx, n) })
	if errors.Is(err, pmdk.ErrNoSpace) {
		// Freed blocks of many different sizes fragment the scratch heap over
		// a long run; start over on a fresh one and measure again.
		must(tx.Abort())
		s.rebuild()
		return s.txAlloc(out, n)
	}
	must(err)
	commit := timed(func() { err = tx.Commit() })
	must(err)
	tx, err = s.pool.Begin(s.clk)
	must(err)
	must(s.pool.Free(tx, id))
	must(tx.Commit())
	return append(out, child{name: "pmdk.tx", dur: begin + commit}, child{name: "pmdk.alloc", dur: alloc})
}

func (s *scratch) datum(sh shape) *serial.Datum {
	d := &serial.Datum{Type: serial.Float64, Payload: s.dram[:sh.bytes]}
	if sh.str {
		d.Type = serial.String
	}
	if sh.ndims > 0 {
		d.Dims = append([]uint64(nil), sh.counts[:sh.ndims]...)
	}
	return d
}

// fill replays moving sh.bytes of user data into mapped PMEM: a bp4 encode
// (with the plain copy of the same bytes measured beside it, nested), or
// just the copy under the identity codec; then the CRC and the persist.
func (s *scratch) fill(out []child, sh shape) []child {
	dst, err := s.pool.Slice(s.blk, s.blkN)
	must(err)
	enc := sh.bytes
	copyDur := timed(func() {
		b, err := s.m.Slice(int64(s.blk), int64(sh.bytes))
		must(err)
		copy(b, s.dram[:sh.bytes])
	})
	if sh.raw {
		out = append(out, child{name: "pmem.copy", dur: copyDur, bytes: sh.bytes})
	} else {
		d := s.datum(sh)
		enc = s.bp4.EncodedSize(d)
		dur := timed(func() { _, err = s.bp4.EncodeTo(dst[:enc], d) })
		must(err)
		s.encoded = sh.counts
		out = append(out,
			child{name: "serial.encode", dur: dur, bytes: sh.bytes},
			child{name: "pmem.copy", dur: copyDur, bytes: sh.bytes, nested: true})
	}
	s.encB += float64(enc)
	s.userB += float64(sh.bytes)
	// A coalesced block's CRC is folded from its fragments' with Combine.
	frags := max(sh.frags, 1)
	crcs := make([]uint32, frags)
	per := enc / frags
	out = append(out, child{name: "checksum.sum", bytes: enc, dur: timed(func() {
		for i := range crcs {
			crcs[i] = checksum.Sum(dst[i*per : (i+1)*per])
		}
	})})
	if frags > 1 {
		out = append(out, child{name: "checksum.combine", dur: timed(func() {
			crc := crcs[0]
			for _, c := range crcs[1:] {
				crc = checksum.Combine(crc, c, int64(per))
			}
			crcs[0] = crc
		})})
	}
	out = append(out, child{name: "pmem.persist",
		dur: timed(func() { err = s.m.Persist(s.clk, int64(s.blk), int64(enc), s.point) })})
	must(err)
	return out
}

func (s *scratch) htGet(out []child, n int) []child {
	for i := 0; i < n; i++ {
		var err error
		out = append(out, child{name: "pmdk.ht_get",
			dur: timed(func() { _, _, err = s.ht.Get(s.clk, s.key) })})
		must(err)
	}
	return out
}

func (s *scratch) htPut(out []child, recB int) []child {
	var err error
	out = append(out, child{name: "pmdk.ht_put",
		dur: timed(func() { err = s.ht.Put(s.clk, s.key, s.rec[:recB]) })})
	must(err)
	return out
}

// gather replays what a block load does per stored block it intersects:
// decode the block in place, then scatter the intersection into the
// destination through nd.
func (s *scratch) gather(out []child, sh shape) []child {
	nd3 := sh.ndims
	full := shape{bytes: 8, counts: sh.counts, ndims: nd3}
	for i := 0; i < nd3; i++ {
		full.bytes *= int(sh.counts[i])
	}
	isB := 8
	for i := 0; i < nd3; i++ {
		isB *= int(sh.isCnts[i])
	}
	src, err := s.pool.Slice(s.blk, s.blkN)
	must(err)
	if !sh.raw && s.encoded != sh.counts {
		d := s.datum(full)
		_, err := s.bp4.EncodeTo(src[:s.bp4.EncodedSize(d)], d)
		must(err)
		s.encoded = sh.counts
	}
	cnts, is := sh.counts[:nd3], sh.isCnts[:nd3]
	zero := make([]uint64, nd3)
	payload := src[:full.bytes]
	for b := 0; b < sh.blocks; b++ {
		if !sh.raw {
			var d *serial.Datum
			enc := s.bp4.EncodedSize(s.datum(full))
			out = append(out, child{name: "serial.decode", bytes: full.bytes,
				dur: timed(func() { d, err = s.bp4.Decode(src[:enc], nil) })})
			must(err)
			payload = d.Payload
		}
		out = append(out, child{name: "nd.gather", bytes: isB, dur: timed(func() {
			err = nd.PlaceIntersection(s.dram[:isB], zero, is, payload, zero, cnts, zero, is, 8)
		})})
		must(err)
	}
	key := [6]uint64{sh.counts[0], sh.counts[1], sh.counts[2], sh.isCnts[0], sh.isCnts[1], sh.isCnts[2]}
	runs, ok := s.runCache[key]
	if !ok {
		must(nd.Runs(cnts, zero, is, 8, func(_, _, _ int64) error { runs++; return nil }))
		s.runCache[key] = runs
	}
	s.runs += float64(runs * sh.blocks)
	s.loads++
	return out
}

// replay runs the layer calls the library makes under one API call of kind k
// and shape sh. The recipes follow internal/core's store, load, view and
// async paths at this commit; what they leave out lands in the residual.
func (s *scratch) replay(k kind, sh shape) []child {
	var out []child
	switch k {
	case kStoreScalar, kStoreString:
		// storeDatum: alloc tx, encode + CRC + persist, value-ref publish.
		out = s.txAlloc(out, int64(sh.bytes)+64)
		out = s.fill(out, sh)
		out = s.htPut(out, sh.recB)
	case kStoreBlock:
		// storeBlock: dims lookup, alloc tx, fill, block-list read + republish.
		out = s.htGet(out, 1)
		out = s.txAlloc(out, int64(sh.bytes)+256)
		out = s.fill(out, sh)
		out = s.htGet(out, 1)
		out = s.htPut(out, sh.recB)
	case kFlush, kDrain:
		// Group commit: per batch one alloc tx, the coalesced fill, one
		// block-list republish.
		per := sh
		if sh.blocks > 0 {
			per.bytes = sh.bytes / sh.blocks
			per.frags = (sh.frags + sh.blocks - 1) / sh.blocks
			per.bytes -= per.bytes % per.frags
		}
		for b := 0; b < sh.blocks; b++ {
			out = s.htGet(out, 1)
			out = s.txAlloc(out, int64(per.bytes)+256)
			out = s.fill(out, per)
			out = s.htGet(out, 1)
			out = s.htPut(out, sh.recB)
		}
	case kLoadScalar, kLoadString:
		// loadDatum: lookup, decode in place, private copy out.
		out = s.htGet(out, 1)
		src, err := s.pool.Slice(s.blk, s.blkN)
		must(err)
		d := s.datum(sh)
		enc := s.bp4.EncodedSize(d)
		_, err = s.bp4.EncodeTo(src[:enc], d)
		must(err)
		s.encoded = [3]uint64{}
		var dec *serial.Datum
		out = append(out, child{name: "serial.decode", bytes: sh.bytes,
			dur: timed(func() { dec, err = s.bp4.Decode(src[:enc], nil) })})
		must(err)
		out = append(out, child{name: "pmem.copy", bytes: sh.bytes,
			dur: timed(func() { _ = dec.Clone() })})
	case kLoadBlock:
		out = s.htGet(out, sh.gets)
		out = s.gather(out, sh)
	case kLoadView:
		out = s.htGet(out, sh.gets)
		if sh.fallback {
			out = s.gather(out, sh)
		}
	case kMinMax, kAlloc, kDelete:
		out = s.htGet(out, sh.gets)
		if sh.recB > 0 {
			out = s.htPut(out, sh.recB)
		}
	}
	return out
}
