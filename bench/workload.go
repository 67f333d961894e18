package main

import "fmt"

// workload is one of the four benchmark workloads. A workload owns its
// seeded inputs and DRAM model; the run machinery (run.go, measure.go) owns
// timing. Rounds run inside pmemcpy.Run, epochRounds at a time, bracketed by
// openEpoch/closeEpoch.
type workload interface {
	name() string
	ranks() int
	devBytes() int64   // size of the node's PMEM device
	keys() int         // metadata keys alive in the store (sizes the replay scratch)
	maxOpBytes() int64 // largest single transfer (sizes the replay scratch)
	// traceByEpoch: the traced/untraced choice is per epoch (the handle
	// outlives a round) instead of per round.
	traceByEpoch() bool
	prepare(st *runState)
	openEpoch(rk *rankCtx) error
	round(rk *rankCtx, r int) error
	closeEpoch(rk *rankCtx) error
}

func newWorkload(name string, sc *scale) (workload, error) {
	switch name {
	case "domain3d":
		return &domain3d{sc: sc}, nil
	case "smallkv":
		return &smallkv{sc: sc, nranks: 1}, nil
	case "ckpt-restart":
		return &ckpt{sc: sc}, nil
	case "stream-raw":
		return &stream{sc: sc}, nil
	}
	return nil, fmt.Errorf("bench: unknown workload %q (have %v)", name, workloadNames)
}

var workloadNames = []string{"domain3d", "smallkv", "ckpt-restart", "stream-raw"}

// noEpoch is embedded by workloads that open a fresh pool every round and so
// keep nothing across the rounds of an epoch.
type noEpoch struct{}

func (noEpoch) traceByEpoch() bool        { return false }
func (noEpoch) openEpoch(*rankCtx) error  { return nil }
func (noEpoch) closeEpoch(*rankCtx) error { return nil }

// removePool deletes the round's pool file so the next round maps a fresh
// one. Collective, outside the timed window.
func removePool(rk *rankCtx, path string) error {
	var rerr error
	err := rk.quiesce(func() { rerr = rk.st.node.FS.Remove(rk.c.Clock(), path) })
	if err == nil && rerr != nil {
		err = fatal("remove "+path, rerr)
	}
	return err
}

// blockListBytes approximates the metadata record a block-list publish
// writes for nblocks blocks of rank ndims (tag + count + per block: dtype,
// pool offset, length, CRC, offsets and counts).
func blockListBytes(nblocks, ndims int) int {
	return 9 + nblocks*(21+16*ndims)
}
