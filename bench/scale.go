package main

// scale fixes every size of the four workloads. "full" is the benchmark;
// "tiny" is the same code at toy sizes with fixed round counts, for the
// smoke test.
type scale struct {
	name string

	warmup      int // untimed rounds that belong to setup_s
	setupReps   int // setups per run; setup_s is their median
	epochRounds int // rounds per pmemcpy.Run (and per smallkv handle)
	// fixedRounds > 0 measures exactly that many rounds instead of running
	// for the time budget, so counts repeat exactly.
	fixedRounds   int
	trackedRounds int // rounds on a crash-tracking node (pmem.tracked_store_x)

	// domain3d: arrays of [2*b0,b1,b2] float64, one [b0,b1,b2] block per rank.
	d3Arrays int
	d3Block  [3]uint64

	// smallkv: ids = 1/2 scalars, 1/4 arrays of kvArrayElems, 1/4 strings.
	kvIDs, kvOps          int
	kvChurnEvery, kvChurn int
	kvArrayElems          int
	kvStringBytes         int

	// ckpt-restart: fields of [2*b0,b1,b2], steps per round.
	ckFields, ckSteps int
	ckCrashRounds     int // durability-epilogue rounds, each ending in a power cut
	ckBlock           [3]uint64

	// stream-raw: records of stElems float64 from a ring of stRing buffers,
	// flushed every stFlush submissions, coalesced stWindow at a time.
	stRecords, stElems, stRing, stFlush, stWindow int
	stViews, stViewMaxRecs                        int
}

var fullScale = scale{
	name:   "full",
	warmup: 5, setupReps: 3, epochRounds: 32, trackedRounds: 2,

	d3Arrays: 10, d3Block: [3]uint64{80, 80, 80},

	kvIDs: 16384, kvOps: 2048, kvChurnEvery: 16, kvChurn: 128,
	kvArrayElems: 32, kvStringBytes: 64,

	ckFields: 4, ckSteps: 8, ckCrashRounds: 5, ckBlock: [3]uint64{40, 40, 40},

	stRecords: 4096, stElems: 1024, stRing: 256, stFlush: 256, stWindow: 32,
	stViews: 1024, stViewMaxRecs: 4,
}

var tinyScale = scale{
	name:   "tiny",
	warmup: 2, setupReps: 1, epochRounds: 4, fixedRounds: 8, trackedRounds: 1,

	d3Arrays: 3, d3Block: [3]uint64{8, 8, 8},

	kvIDs: 256, kvOps: 64, kvChurnEvery: 4, kvChurn: 8,
	kvArrayElems: 32, kvStringBytes: 64,

	ckFields: 2, ckSteps: 3, ckCrashRounds: 1, ckBlock: [3]uint64{4, 8, 8},

	stRecords: 256, stElems: 64, stRing: 32, stFlush: 32, stWindow: 8,
	stViews: 32, stViewMaxRecs: 4,
}

func scaleByName(name string) (*scale, bool) {
	switch name {
	case "full":
		s := fullScale
		return &s, true
	case "tiny":
		s := tinyScale
		return &s, true
	}
	return nil, false
}

func elems(b [3]uint64) int { return int(b[0] * b[1] * b[2]) }
