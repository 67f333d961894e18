package main

import (
	"fmt"
	"runtime"
	"syscall"
	"time"

	"pmemcpy"
	"pmemcpy/internal/pmem"
)

// Phases of a round. Every workload's round is a write phase and a read
// phase (possibly in several segments); the two are timed and reported apart.
const (
	phStore = iota
	phLoad
	nPhases
)

var phaseNames = [nPhases]string{"store", "load"}

// kind identifies a public API call the benchmark issues. The first nOpKinds
// are the data-moving calls counted as "ops"; the rest sit inside the timed
// phases but are not counted (ISSUE: Mmap/Alloc/Flush/Drain/Munmap/Delete).
type kind uint8

const (
	kStoreScalar kind = iota // pmemcpy.Store
	kStoreString             // pmemcpy.StoreString
	kStoreBlock              // pmemcpy.StoreSub
	kStoreAsync              // pmemcpy.StoreSubAsync
	kLoadScalar              // pmemcpy.Load
	kLoadString              // pmemcpy.LoadString
	kLoadBlock               // pmemcpy.LoadSub
	kLoadView                // pmemcpy.LoadView + Data + Close
	kMinMax                  // pmemcpy.MinMax
	kDurable                 // acknowledged write read back after a crash (epilogue)
	nOpKinds
)

const (
	kMmap kind = nOpKinds + iota
	kMunmap
	kAlloc
	kFlush
	kDrain
	kDelete
	nKinds
)

var kindNames = [nKinds]string{
	kStoreScalar: "pmemcpy.Store", kStoreString: "pmemcpy.StoreString",
	kStoreBlock: "pmemcpy.StoreSub", kStoreAsync: "pmemcpy.StoreSubAsync",
	kLoadScalar: "pmemcpy.Load", kLoadString: "pmemcpy.LoadString",
	kLoadBlock: "pmemcpy.LoadSub", kLoadView: "pmemcpy.LoadView",
	kMinMax: "pmemcpy.MinMax", kDurable: "post-crash read",
	kMmap: "pmemcpy.Mmap", kMunmap: "PMEM.Munmap", kAlloc: "pmemcpy.Alloc",
	kFlush: "PMEM.Flush", kDrain: "PMEM.Drain", kDelete: "PMEM.Delete",
}

func (k kind) isOp() bool { return k < nOpKinds }

// resources are the process-wide meters read at phase boundaries, with every
// rank quiescent.
type resources struct {
	mallocs, heapB uint64
	gcCycles       uint32
	gcPauseNS      uint64
	cpu            time.Duration
	dev            pmem.Counters
}

func takeResources(n *pmemcpy.Node) resources {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var ru syscall.Rusage
	// Getrusage(RUSAGE_SELF) cannot fail with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	cpu := time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	return resources{
		mallocs: ms.Mallocs, heapB: ms.TotalAlloc,
		gcCycles: ms.NumGC, gcPauseNS: ms.PauseTotalNs,
		cpu: cpu, dev: n.Device.Counters(),
	}
}

// phaseSample is what one round's write (or read) phase cost.
type phaseSample struct {
	ops      int64
	userB    int64
	wall     time.Duration // max over ranks, benchmark-side replay time excluded
	virt     time.Duration // max over ranks, on the ranks' sim.Clock
	mallocs  uint64
	heapB    uint64
	cpu      time.Duration
	gcCycles uint32
	gcPause  uint64
	dev      pmem.Counters // device counter deltas
}

// add accumulates q into p.
func (p *phaseSample) add(q *phaseSample) {
	p.ops += q.ops
	p.userB += q.userB
	p.wall += q.wall
	p.virt += q.virt
	p.mallocs += q.mallocs
	p.heapB += q.heapB
	p.cpu += q.cpu
	p.gcCycles += q.gcCycles
	p.gcPause += q.gcPause
	p.dev.Persists += q.dev.Persists
	p.dev.Fences += q.dev.Fences
	p.dev.PersistedBytes += q.dev.PersistedBytes
	p.dev.ReadBytes += q.dev.ReadBytes
	p.dev.WrittenBytes += q.dev.WrittenBytes
}

// roundSample is one measured round.
type roundSample struct {
	traced bool
	ph     [nPhases]phaseSample
}

// tally is a rank's private op accounting; rank 0 folds every rank's tally
// into the run at round end.
type tally struct {
	attempted, failed [nOpKinds]int64
	phaseOps, userB   [nPhases]int64
	blocksPerLoad     int64 // stored blocks intersected by the round's block loads
	blockLoads        int64
	digest            uint64
}

// runState is shared by the ranks of one workload run.
type runState struct {
	w      workload
	sc     *scale
	seed   uint64
	node   *pmemcpy.Node
	ranks  int
	tracer *tracer // non-nil in a traced run

	// Written by each rank for itself, read by rank 0 after a barrier.
	rankWall, rankVirt [maxRanks]time.Duration

	snap      resources
	cur       roundSample
	curTraced bool
	stop      bool

	samples   []roundSample
	space     []float64 // space_amp samples
	attempted [nOpKinds]int64
	failed    [nOpKinds]int64
	blocks    int64
	blockLds  int64
	digest    uint64
	layer     layerCounts // traced rounds only
	barrierNS []float64
}

const maxRanks = 2

// rankCtx is one rank's handle on the run.
type rankCtx struct {
	c    *pmemcpy.Comm
	rank int
	st   *runState
	t    tally

	t0     time.Time
	v0     time.Duration
	paused time.Duration // replay/snapshot time to exclude from the open phase

	tr *rankTrace // nil on untraced rounds
}

// quiesce runs f on rank 0 while every rank waits: the way process-wide
// meters and shared state are touched between phases.
func (rk *rankCtx) quiesce(f func()) error {
	if err := rk.c.Barrier(); err != nil {
		return err
	}
	if rk.rank == 0 && f != nil {
		f()
	}
	return rk.c.Barrier()
}

// begin opens a timed phase segment. Collective.
func (rk *rankCtx) begin() error {
	st := rk.st
	if err := rk.quiesce(func() { st.snap = takeResources(st.node) }); err != nil {
		return err
	}
	rk.paused = 0
	rk.v0 = rk.c.Clock().Now()
	rk.t0 = time.Now()
	return nil
}

// end closes the segment and adds it to phase ph of the current round.
// Collective.
func (rk *rankCtx) end(ph int) error {
	st := rk.st
	st.rankWall[rk.rank] = time.Since(rk.t0) - rk.paused
	st.rankVirt[rk.rank] = rk.c.Clock().Now() - rk.v0
	return rk.quiesce(func() {
		after, before := takeResources(st.node), st.snap
		seg := phaseSample{
			mallocs: after.mallocs - before.mallocs, heapB: after.heapB - before.heapB,
			cpu:      after.cpu - before.cpu,
			gcCycles: after.gcCycles - before.gcCycles, gcPause: after.gcPauseNS - before.gcPauseNS,
			dev: pmem.Counters{
				Persists: after.dev.Persists - before.dev.Persists, Fences: after.dev.Fences - before.dev.Fences,
				PersistedBytes: after.dev.PersistedBytes - before.dev.PersistedBytes,
				ReadBytes:      after.dev.ReadBytes - before.dev.ReadBytes,
				WrittenBytes:   after.dev.WrittenBytes - before.dev.WrittenBytes,
			},
		}
		for r := 0; r < st.ranks; r++ {
			seg.wall = max(seg.wall, st.rankWall[r])
			seg.virt = max(seg.virt, st.rankVirt[r])
		}
		st.cur.ph[ph].add(&seg)
	})
}

// opBegin/opEnd bracket one public API call. Untraced they only count; on a
// traced round they also record the call's span (and, for sampled calls, the
// replayed layer ladder under it).
func (rk *rankCtx) opBegin() time.Time {
	if rk.tr == nil {
		return time.Time{}
	}
	return time.Now()
}

func (rk *rankCtx) opEnd(t0 time.Time, k kind, ph int, sh shape, err error) bool {
	var t1 time.Time
	if rk.tr != nil {
		t1 = time.Now()
	}
	if k.isOp() {
		rk.t.attempted[k]++
		rk.t.phaseOps[ph]++
		rk.t.userB[ph] += int64(sh.bytes)
		if k == kLoadBlock {
			rk.t.blockLoads++
			rk.t.blocksPerLoad += int64(sh.blocks)
		}
		if err != nil {
			rk.t.failed[k]++
		}
	}
	rk.t.digest = mix(rk.t.digest, uint64(k)<<56^sh.tag)
	if rk.tr != nil {
		rk.paused += rk.tr.record(t0, t1, k, ph, sh)
	}
	return err == nil
}

// mismatch counts an op whose result differed from the seeded model. Ops
// that already returned an error are not counted twice: callers only verify
// results of calls that succeeded.
func (rk *rankCtx) mismatch(k kind) { rk.t.failed[k]++ }

// fatal is an error no workload can continue past: a collective or the
// handle itself failed. Failed data ops are counted, never fatal.
func fatal(what string, err error) error { return fmt.Errorf("bench: %s: %w", what, err) }

// mmap, munmap, alloc wrap the collective bookkeeping calls with spans.
func (rk *rankCtx) mmap(ph int, path string, opts ...pmemcpy.MmapOption) (*pmemcpy.PMEM, error) {
	if rk.tr != nil {
		opts = append(opts[:len(opts):len(opts)], pmemcpy.WithMetrics(), pmemcpy.WithTracing())
	}
	t := rk.opBegin()
	pm, err := pmemcpy.Mmap(rk.c, rk.st.node, path, opts...)
	rk.opEnd(t, kMmap, ph, shape{}, err)
	if err != nil {
		return nil, fatal("Mmap "+path, err)
	}
	return pm, nil
}

func (rk *rankCtx) munmap(ph int, pm *pmemcpy.PMEM) error {
	if rk.tr != nil {
		// Handle-group counters die with the handle: fold them into the
		// layer counts first, with every rank done and outside the timed
		// window.
		t := time.Now()
		if err := rk.quiesce(func() { rk.st.layer.absorb(pm, ph) }); err != nil {
			return err
		}
		rk.paused += time.Since(t)
	}
	t := rk.opBegin()
	err := pm.Munmap()
	rk.opEnd(t, kMunmap, ph, shape{}, err)
	if err != nil {
		return fatal("Munmap", err)
	}
	return nil
}

func (rk *rankCtx) alloc(ph int, pm *pmemcpy.PMEM, id string, dims ...uint64) error {
	t := rk.opBegin()
	err := pmemcpy.Alloc[float64](pm, id, dims...)
	rk.opEnd(t, kAlloc, ph, shape{}, err)
	if err != nil {
		return fatal("Alloc "+id, err)
	}
	return nil
}

// endRound folds every rank's tally into the run and files the round's
// sample. Collective; record=false discards the timings (warm-up rounds).
func (rk *rankCtx) endRound(record bool, tallies *[maxRanks]tally) error {
	tallies[rk.rank] = rk.t
	rk.t = tally{}
	st := rk.st
	return rk.quiesce(func() {
		for r := 0; r < st.ranks; r++ {
			t := &tallies[r]
			for k := range t.attempted {
				st.attempted[k] += t.attempted[k]
				st.failed[k] += t.failed[k]
			}
			for ph := 0; ph < nPhases; ph++ {
				st.cur.ph[ph].ops += t.phaseOps[ph]
				st.cur.ph[ph].userB += t.userB[ph]
			}
			st.blocks += t.blocksPerLoad
			st.blockLds += t.blockLoads
			st.digest = mix(st.digest, t.digest+uint64(r))
		}
		if record {
			st.cur.traced = st.curTraced
			st.samples = append(st.samples, st.cur)
		}
		st.cur = roundSample{}
	})
}

const golden = 0x9e3779b97f4a7c15

// mix is the op-stream digest step (splitmix64 finalizer over a running sum).
func mix(h, v uint64) uint64 {
	z := h + v + golden
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// rng is splitmix64: small, fast, and good enough to generate keys, offsets
// and payloads from the seed.
type rng uint64

func newRNG(seed uint64, stream ...uint64) *rng {
	h := seed
	for _, s := range stream {
		h = mix(h, s)
	}
	r := rng(h)
	return &r
}

func (r *rng) next() uint64 {
	v := mix(uint64(*r), 0)
	*r += golden
	return v
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// float returns a value in [0,1) with 53 random bits.
func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

func (r *rng) fill(v []float64) {
	for i := range v {
		v[i] = r.float()
	}
}
