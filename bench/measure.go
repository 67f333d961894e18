package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"time"

	"pmemcpy"
)

// options selects one workload run.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	sc       *scale
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is everything one workload run reports.
type result struct {
	Workload  string              `json:"workload"`
	Seed      uint64              `json:"seed"`
	Scale     string              `json:"scale"`
	Traced    bool                `json:"traced"`
	Rounds    int                 `json:"rounds"`
	Attempted int64               `json:"attempted"`
	Failed    int64               `json:"failed"`
	ByKind    map[string][2]int64 `json:"by_kind"` // op kind -> {attempted, failed}
	Digest    string              `json:"op_stream_digest"`
	Metrics   map[string]metric   `json:"metrics"`
	// Dists carries the round-level distribution behind each median metric.
	Dists  map[string]dist    `json:"dists,omitempty"`
	Ladder map[string]float64 `json:"ladder_ns_per_op,omitempty"`
	Env    envInfo            `json:"env"`

	spans []span
}

func newRunState(w workload, o options, tracking bool) *runState {
	var nopts []pmemcpy.NodeOption
	if tracking {
		nopts = append(nopts, pmemcpy.WithCrashTracking())
	}
	st := &runState{
		w: w, sc: o.sc, seed: o.seed, ranks: w.ranks(),
		node: pmemcpy.NewNode(pmemcpy.DefaultConfig(), w.devBytes(), nopts...),
	}
	w.prepare(st)
	return st
}

// spaceRound reports whether round r is the one on which fresh-pool
// workloads sample space_amp: the last warm-up round, whose timings are
// discarded anyway. Every round builds the same store, so one sample is all.
func (st *runState) spaceRound(r int) bool { return r == st.sc.warmup-1 }

// sampleSpace records pool heap bytes in use over live user bytes.
func (st *runState) sampleSpace(pm *pmemcpy.PMEM, live int64) {
	s, err := pm.Stats()
	if err == nil && live > 0 {
		st.space = append(st.space, float64(s.HeapUsed)/float64(live))
	}
}

// runRounds runs rounds first, first+1, … in epochs of epochRounds inside
// one pmemcpy.Run each, until more(done) says stop. record=false discards
// the timings (warm-up).
func (st *runState) runRounds(first int, record bool, more func(done int) bool) error {
	done := 0
	st.stop = false
	for epoch := 0; !st.stop; epoch++ {
		var tallies [maxRanks]tally
		_, err := pmemcpy.Run(st.node, st.ranks, func(c *pmemcpy.Comm) error {
			rk := &rankCtx{c: c, rank: c.Rank(), st: st}
			byEpoch := st.w.traceByEpoch()
			// On a traced run every other round (or epoch) is traced; the
			// untraced ones are the baseline for obs.trace_overhead_pct.
			setTrace := func(odd bool) error {
				err := rk.quiesce(func() { st.curTraced = st.tracer != nil && record && odd })
				rk.tr = nil
				if st.curTraced {
					rk.tr = st.tracer.ranks[rk.rank]
				}
				return err
			}
			if byEpoch {
				if err := setTrace(epoch%2 == 1); err != nil {
					return err
				}
			}
			if st.tracer != nil && record {
				if err := st.timeBarriers(rk); err != nil {
					return err
				}
			}
			if err := st.w.openEpoch(rk); err != nil {
				return err
			}
			for i := 0; i < st.sc.epochRounds; i++ {
				r := first + done
				if !byEpoch {
					if err := setTrace(r%2 == 1); err != nil {
						return err
					}
				}
				if rk.tr != nil {
					rk.tr.startRound(r)
				}
				if err := st.w.round(rk, r); err != nil {
					return err
				}
				if err := rk.endRound(record, &tallies); err != nil {
					return err
				}
				if err := rk.quiesce(func() { done++; st.stop = !more(done) }); err != nil {
					return err
				}
				if st.stop {
					break
				}
			}
			return st.w.closeEpoch(rk)
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// timeBarriers measures the communicator's barrier: 200 back to back, so
// the ranks' skew on arrival is paid once.
func (st *runState) timeBarriers(rk *rankCtx) error {
	const n = 200
	if err := rk.c.Barrier(); err != nil {
		return err
	}
	t := time.Now()
	for i := 0; i < n; i++ {
		if err := rk.c.Barrier(); err != nil {
			return err
		}
	}
	if rk.rank == 0 {
		st.barrierNS = append(st.barrierNS, float64(time.Since(t))/n)
	}
	return nil
}

func countRounds(n int) func(int) bool { return func(done int) bool { return done < n } }

func untilDeadline(d time.Time) func(int) bool {
	return func(int) bool { return time.Now().Before(d) }
}

// measure runs one workload: setup (setupReps times, the last kept), the
// measured rounds, and the epilogue; then assembles the metrics.
func measure(o options) (*result, error) {
	var st *runState
	var setups []float64
	reps := o.sc.setupReps
	if o.trace {
		reps = 1
	}
	for i := 0; i < reps; i++ {
		st = nil
		runtime.GC() // drop the previous setup's device before allocating the next
		t0 := time.Now()
		w, err := newWorkload(o.workload, o.sc)
		if err != nil {
			return nil, err
		}
		st = newRunState(w, o, false)
		if err := st.runRounds(0, false, countRounds(o.sc.warmup)); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	if o.trace {
		var err error
		if st.tracer, err = newTracer(st.w, st.ranks, 2); err != nil {
			return nil, err
		}
	}
	more := countRounds(o.sc.fixedRounds)
	if o.sc.fixedRounds == 0 {
		budget := o.seconds
		if o.trace {
			budget *= traceRoundShare
		}
		more = untilDeadline(time.Now().Add(time.Duration(budget * float64(time.Second))))
	}
	if err := st.runRounds(o.sc.warmup, true, more); err != nil {
		return nil, err
	}

	res := &result{
		Workload: o.workload, Seed: o.seed, Scale: o.sc.name, Traced: o.trace,
		Rounds: len(st.samples), Metrics: make(map[string]metric), Dists: make(map[string]dist),
		Env: environment(o.seed),
	}
	if len(st.samples) == 0 {
		return nil, fmt.Errorf("bench: %s measured no round", o.workload)
	}
	// The durability epilogue (ckpt-restart) and, on a traced run, the
	// crash-tracking store slowdown of every workload.
	var tracked *runState
	if o.workload == "ckpt-restart" || o.trace {
		var err error
		if tracked, err = runTracked(o); err != nil {
			return nil, err
		}
		for k := range tracked.attempted {
			st.attempted[k] += tracked.attempted[k]
			st.failed[k] += tracked.failed[k]
		}
	}
	res.ByKind = make(map[string][2]int64)
	for k := 0; k < int(nOpKinds); k++ {
		if st.attempted[k] > 0 {
			res.ByKind[kindNames[k]] = [2]int64{st.attempted[k], st.failed[k]}
		}
		res.Attempted += st.attempted[k]
		res.Failed += st.failed[k]
	}
	res.Digest = fmt.Sprintf("%016x", st.digest)

	if o.trace {
		if err := perLayer(res, st, tracked, o); err != nil {
			return nil, err
		}
	} else {
		endToEnd(res, st, setups)
	}
	return res, nil
}

// traceRoundShare is the part of a traced run's time budget spent on rounds;
// the rest goes to the side measurements (tracked rounds, contention, pool
// open/recovery, the harness rung).
const traceRoundShare = 0.7

// runTracked runs trackedRounds rounds of the workload on a node with crash
// tracking on. For ckpt-restart these are the durability epilogue's rounds:
// each ends in a power cut and a verified recovery.
func runTracked(o options) (*runState, error) {
	w, err := newWorkload(o.workload, o.sc)
	if err != nil {
		return nil, err
	}
	rounds := o.sc.trackedRounds
	if c, ok := w.(*ckpt); ok {
		c.crash = true
		rounds = o.sc.ckCrashRounds
	}
	st := newRunState(w, options{seed: o.seed ^ 0x5eed, sc: o.sc}, true)
	// Round indices start past the warm-up so no round is the space round.
	if err := st.runRounds(o.sc.warmup, true, countRounds(rounds)); err != nil {
		return nil, err
	}
	return st, nil
}

// perOp returns, for every sample accepted by keep, f(sample)/ops(sample).
func perOp(samples []roundSample, keep func(*roundSample) bool, f func(*roundSample) (float64, int64)) []float64 {
	var out []float64
	for i := range samples {
		s := &samples[i]
		if !keep(s) {
			continue
		}
		if v, ops := f(s); ops > 0 {
			out = append(out, v/float64(ops))
		}
	}
	return out
}

func untraced(s *roundSample) bool { return !s.traced }
func traced(s *roundSample) bool   { return s.traced }

func wallUS(ph int) func(*roundSample) (float64, int64) {
	return func(s *roundSample) (float64, int64) { return float64(s.ph[ph].wall) / 1e3, s.ph[ph].ops }
}

// bothWall is a round's wall time over both phases and its ops.
func bothWall(s *roundSample) (float64, int64) {
	return float64(s.ph[phStore].wall + s.ph[phLoad].wall), s.ph[phStore].ops + s.ph[phLoad].ops
}

func virtUS(ph int) func(*roundSample) (float64, int64) {
	return func(s *roundSample) (float64, int64) { return float64(s.ph[ph].virt) / 1e3, s.ph[ph].ops }
}

// totals sums a phase over the samples accepted by keep.
func totals(samples []roundSample, keep func(*roundSample) bool, ph int) phaseSample {
	var t phaseSample
	for i := range samples {
		if s := &samples[i]; keep(s) {
			t.add(&s.ph[ph])
		}
	}
	return t
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// endToEnd fills the end-to-end metrics from the (untraced) samples. Wall
// timings are medians over rounds of per-op phase time. Virtual timings carry
// no host noise, so they are means: a round's virtual time takes few distinct
// values and their median would read the same whatever the seed. Counts are
// totals over all timed phases divided by ops, as a cost per op must include
// the rounds in which the garbage collector ran.
func endToEnd(res *result, st *runState, setups []float64) {
	set := func(name, unit string, v float64) { res.Metrics[name] = metric{Value: v, Unit: unit} }
	timing := func(name, unit string, v []float64) {
		d := summarize(v)
		res.Dists[name] = d
		set(name, unit, d.Median)
	}
	set("setup_s", "s", median(setups))
	res.Dists["setup_s"] = summarize(setups)
	for ph := 0; ph < nPhases; ph++ {
		p := phaseNames[ph]
		timing(p+"_us_per_op", "us", perOp(st.samples, untraced, wallUS(ph)))
		virt := perOp(st.samples, untraced, virtUS(ph))
		res.Dists[p+"_virt_us_per_op"] = summarize(virt)
		set(p+"_virt_us_per_op", "virt_us", mean(virt))
		t := totals(st.samples, untraced, ph)
		set(p+"_allocs_per_op", "count", ratio(float64(t.mallocs), float64(t.ops)))
		set(p+"_heap_b_per_op", "bytes", ratio(float64(t.heapB), float64(t.ops)))
	}
	s, l := totals(st.samples, untraced, phStore), totals(st.samples, untraced, phLoad)
	set("cpu_us_per_op", "us", ratio(float64(s.cpu+l.cpu)/1e3, float64(s.ops+l.ops)))
	set("space_amp", "ratio", median(st.space))
}

// endToEndNames lists the end-to-end metrics in report order.
var endToEndNames = []string{
	"setup_s",
	"store_us_per_op", "load_us_per_op",
	"store_virt_us_per_op", "load_virt_us_per_op",
	"store_allocs_per_op", "load_allocs_per_op",
	"store_heap_b_per_op", "load_heap_b_per_op",
	"cpu_us_per_op", "space_amp",
}

// perLayer fills the per-layer metrics of a traced run.
func perLayer(res *result, st *runState, tracked *runState, o options) error {
	set := func(name, unit string, v float64) {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		res.Metrics[name] = metric{Value: v, Unit: unit}
	}
	// Fold every rank's recorder into rank 0's.
	rt := st.tracer.ranks[0]
	res.spans = rt.spans
	for r := 1; r < st.ranks; r++ {
		rt.merge(st.tracer.ranks[r])
		res.spans = append(res.spans, st.tracer.ranks[r].spans...)
	}
	med := func(name string) float64 { return rt.layer[name].median() }
	perKB := func(name string) float64 { return rt.layer[name].nsPerKB() }

	tS, tL := totals(st.samples, traced, phStore), totals(st.samples, traced, phLoad)
	ops := float64(tS.ops + tL.ops)
	cL := st.layer.ph[phLoad]
	all := func(i int) float64 { return float64(st.layer.ph[phStore][i] + cL[i]) }

	// pmem
	set("pmem.copy_ns_per_kb", "ns/KB", perKB("pmem.copy"))
	set("pmem.persist_ns", "ns", med("pmem.persist"))
	set("pmem.persists_per_op", "count", ratio(float64(tS.dev.Persists+tL.dev.Persists), ops))
	set("pmem.fences_per_op", "count", ratio(float64(tS.dev.Fences+tL.dev.Fences), ops))
	// Payload bytes stream through the mapping, not the device's charged
	// ports, so writes are counted where they are persisted and reads where
	// the load ops report them; the ports add the metadata traffic.
	set("pmem.written_b_per_user_b", "ratio", ratio(float64(tS.dev.PersistedBytes), float64(tS.userB)))
	set("pmem.read_b_per_user_b", "ratio", ratio(float64(tL.dev.ReadBytes+cL[cLoadBytes]), float64(tL.userB)))
	base := median(perOp(st.samples, untraced, wallUS(phStore)))
	set("pmem.tracked_store_x", "x", ratio(median(perOp(tracked.samples, untraced, wallUS(phStore))), base))

	// pmdk
	set("pmdk.tx_ns", "ns", med("pmdk.tx"))
	set("pmdk.alloc_ns", "ns", med("pmdk.alloc"))
	set("pmdk.ht_put_ns", "ns", med("pmdk.ht_put"))
	set("pmdk.ht_get_ns", "ns", med("pmdk.ht_get"))
	set("pmdk.tx_per_op", "count", ratio(all(cTx), ops))
	set("pmdk.allocs_per_op", "count", ratio(all(cAllocs), ops))
	set("pmdk.frees_per_op", "count", ratio(all(cFrees), ops))
	set("pmdk.aborts", "count", all(cAborts))
	set("pmdk.arena_steals_per_op", "count", ratio(all(cSteals), ops))
	openUS, recoverUS, err := poolOpenTimes(5)
	if err != nil {
		return err
	}
	set("pmdk.open_us", "us", openUS)
	set("pmdk.recover_us", "us", recoverUS)
	set("pmdk.heap_b_per_live_b", "ratio", median(st.space))

	// serial, checksum, nd
	set("serial.encode_ns_per_kb", "ns/KB", perKB("serial.encode"))
	set("serial.decode_ns_per_kb", "ns/KB", perKB("serial.decode"))
	set("serial.encoded_b_per_user_b", "ratio", ratio(rt.sc.encB, rt.sc.userB))
	set("checksum.sum_ns_per_kb", "ns/KB", perKB("checksum.sum"))
	set("nd.gather_ns_per_kb", "ns/KB", perKB("nd.gather"))
	set("nd.runs_per_op", "count", ratio(rt.sc.runs, rt.sc.loads))

	// core
	set("core.store_ns", "ns", ratio(float64(rt.callNS[phStore]), float64(tS.ops)))
	set("core.load_ns", "ns", ratio(float64(rt.callNS[phLoad]), float64(tL.ops)))
	set("core.store_residual_ns", "ns", ratio(rt.ladder[phStore].resid, float64(tS.ops)))
	set("core.load_residual_ns", "ns", ratio(rt.ladder[phLoad].resid, float64(tL.ops)))
	for ph := 0; ph < nPhases; ph++ {
		s := append([]float64(nil), rt.opNS[ph]...)
		sort.Float64s(s)
		set("core."+phaseNames[ph]+"_p99_us", "us", quantile(s, 0.99)/1e3)
		res.Dists["core."+phaseNames[ph]+"_op_ns"] = summarize(s)
	}
	set("core.mmap_us", "us", median(rt.mmapNS)/1e3)
	set("core.munmap_us", "us", median(rt.munmapNS)/1e3)
	set("core.cache_hit_ratio", "ratio", ratio(all(cHits), all(cHits)+all(cMisses)))
	set("core.cache_invalidations_per_op", "count", ratio(all(cInvalidations), ops))
	set("core.blocks_per_load", "count", ratio(float64(st.blocks), float64(st.blockLds)))
	set("core.view_zero_copy_ratio", "ratio", ratio(all(cViewZero), all(cViewZero)+all(cViewFallback)))
	set("core.coalesce_ratio", "ratio", ratio(all(cSubmitted), all(cPublishes)))
	set("core.batch_ops_mean", "count", ratio(all(cBatchOps), all(cBatches)))
	set("core.backpressure_per_op", "count", ratio(all(cBackpressure), float64(tS.ops)))
	cx, err := contention(o)
	if err != nil {
		return err
	}
	set("core.contention_x", "x", cx)

	// pmemcpy, mpi, obs
	set("pmemcpy.api_residual_ns", "ns", median(rt.apiResid)) // NaN (no scalar load issued) reads 0
	set("mpi.barrier_ns", "ns", median(st.barrierNS))
	off, on := median(perOp(st.samples, untraced, bothWall)), median(perOp(st.samples, traced, bothWall))
	set("obs.trace_overhead_pct", "%", 100*ratio(on-off, off))

	// harness
	f6, f7, s6, s7, err := harnessRung()
	if err != nil {
		return err
	}
	set("harness.fig6_write_virt_s", "virt_s", f6)
	set("harness.fig7_read_virt_s", "virt_s", f7)
	set("harness.fig6_speedup_vs_adios", "x", s6)
	set("harness.fig7_speedup_vs_adios", "x", s7)

	// go
	set("go.gc_cycles_per_kop", "count", 1e3*ratio(float64(tS.gcCycles+tL.gcCycles), ops))
	set("go.gc_pause_us_per_op", "us", ratio(float64(tS.gcPause+tL.gcPause)/1e3, ops))

	// The ladder, per op and per phase: weighted layer spans plus the
	// residual add up to the weighted sampled call spans exactly.
	res.Ladder = make(map[string]float64)
	for ph, t := range []phaseSample{tS, tL} {
		p := phaseNames[ph]
		n := float64(t.ops)
		l := &rt.ladder[ph]
		for k, v := range l.layer {
			res.Ladder[p+"/"+k] = ratio(v, n)
		}
		res.Ladder[p+"/core.residual"] = ratio(l.resid, n)
		res.Ladder[p+"/sampled_call_span"] = ratio(l.span, n)
	}
	return nil
}

// perLayerNames lists the per-layer metrics in report order.
var perLayerNames = []string{
	"pmem.copy_ns_per_kb", "pmem.persist_ns", "pmem.persists_per_op", "pmem.fences_per_op",
	"pmem.written_b_per_user_b", "pmem.read_b_per_user_b", "pmem.tracked_store_x",
	"pmdk.tx_ns", "pmdk.alloc_ns", "pmdk.ht_put_ns", "pmdk.ht_get_ns", "pmdk.tx_per_op",
	"pmdk.allocs_per_op", "pmdk.frees_per_op", "pmdk.aborts", "pmdk.arena_steals_per_op",
	"pmdk.open_us", "pmdk.recover_us", "pmdk.heap_b_per_live_b",
	"serial.encode_ns_per_kb", "serial.decode_ns_per_kb", "serial.encoded_b_per_user_b",
	"checksum.sum_ns_per_kb",
	"nd.gather_ns_per_kb", "nd.runs_per_op",
	"core.store_ns", "core.load_ns", "core.store_residual_ns", "core.load_residual_ns",
	"core.store_p99_us", "core.load_p99_us", "core.mmap_us", "core.munmap_us",
	"core.cache_hit_ratio", "core.cache_invalidations_per_op", "core.blocks_per_load",
	"core.view_zero_copy_ratio", "core.coalesce_ratio", "core.batch_ops_mean",
	"core.backpressure_per_op", "core.contention_x",
	"pmemcpy.api_residual_ns",
	"mpi.barrier_ns",
	"obs.trace_overhead_pct",
	"harness.fig6_write_virt_s", "harness.fig7_read_virt_s",
	"harness.fig6_speedup_vs_adios", "harness.fig7_speedup_vs_adios",
	"go.gc_cycles_per_kop", "go.gc_pause_us_per_op",
}

// contention runs the smallkv loop at a reduced size with one rank and with
// two, and returns how much longer a rank's op takes with a neighbour
// (1 = no interference, 2 = fully serialized).
func contention(o options) (float64, error) {
	sc := *o.sc
	if sc.fixedRounds == 0 {
		sc.kvIDs, sc.kvOps, sc.kvChurnEvery = 4096, 1024, 0
		sc.epochRounds, sc.fixedRounds, sc.warmup = 8, 8, 1
	}
	var perRankOp [3]float64
	for ranks := 1; ranks <= 2; ranks++ {
		w := &smallkv{sc: &sc, nranks: ranks}
		st := newRunState(w, options{seed: o.seed, sc: &sc}, false)
		if err := st.runRounds(0, false, countRounds(sc.warmup)); err != nil {
			return 0, err
		}
		if err := st.runRounds(sc.warmup, true, countRounds(sc.fixedRounds)); err != nil {
			return 0, err
		}
		perRankOp[ranks] = float64(ranks) * median(perOp(st.samples, untraced, bothWall))
	}
	return ratio(perRankOp[2], perRankOp[1]), nil
}
