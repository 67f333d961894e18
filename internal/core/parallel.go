package core

import (
	"pmemcpy/internal/serial"
)

// Parallel store planners: a large StoreBlock payload is split along its
// slowest-varying dimension into per-shard blocks that worker goroutines
// serialize into PMEM concurrently. All shard blocks are allocated in ONE
// transaction (amortizing tx begin/commit across blocks, as "Persistent
// Memory Transactions" prescribes) and published in the variable's block list
// with ONE metadata update, so a crash anywhere leaves either the whole
// multi-shard store or none of it — never a torn block list. The crash-matrix
// tests drive exactly that property.
//
// This file only plans (shard the payload, assign stripe pools); the commit
// engine's sharded and chunked fills (writeplan.go) execute the concurrent
// encode waves. Workers only run the codec's EncodeTo into their shard's
// mapped slice; the coordinator does every clock charge, capture and persist,
// keeping virtual time and the crash simulator's persist ordering
// deterministic regardless of goroutine scheduling.

// parallelMinBytes is the smallest encoded payload worth sharding; below it
// the per-shard transaction and header overhead outweighs the copy win.
const parallelMinBytes = 256 << 10

// shard is one worker's slice of a parallel store, as cut by splitShards;
// the commit engine's sharded fill carries the execution state (block,
// bytes written, CRC) on the plan's writeUnits.
type shard struct {
	datum serial.Datum // dims/payload restricted to this shard's rows
	offs  []uint64
}

// splitShards cuts the block (offs, counts, payload) into at most want
// contiguous row ranges along dimension 0. Row-major layout makes each
// shard's payload a contiguous sub-slice, so workers never overlap.
func splitShards(d *serial.Datum, offs, counts []uint64, want int) []shard {
	rows := counts[0]
	if uint64(want) > rows {
		want = int(rows)
	}
	rowBytes := uint64(len(d.Payload)) / rows
	shards := make([]shard, 0, want)
	var start uint64
	for i := 0; i < want; i++ {
		n := rows / uint64(want)
		if uint64(i) < rows%uint64(want) {
			n++
		}
		scounts := append([]uint64(nil), counts...)
		scounts[0] = n
		soffs := append([]uint64(nil), offs...)
		soffs[0] += start
		shards = append(shards, shard{
			datum: serial.Datum{
				Type:    d.Type,
				Dims:    scounts,
				Payload: d.Payload[start*rowBytes : (start+n)*rowBytes],
			},
			offs: soffs,
		})
		start += n
	}
	return shards
}

// parallelEligible reports whether a store of encSize encoded bytes should
// take the parallel path.
func (p *PMEM) parallelEligible(counts []uint64, encSize int64) bool {
	return p.st.opt.Parallelism > 1 &&
		!p.st.opt.StagedSerialization && // staging ablation models the serial related work
		p.st.opt.Layout == LayoutHashtable &&
		encSize >= parallelMinBytes &&
		len(counts) > 0 && counts[0] > 1
}

// storeBlockParallel is StoreBlock's sharded write path. It returns the total
// encoded bytes written. On a sharded namespace the shards stripe round-robin
// across the member pools starting at the id's home pool, so one large store
// drives every device concurrently — the aggregate-bandwidth win E17 sweeps.
func (p *PMEM) storeBlockParallel(id string, rec dimsRecord, offs, counts []uint64, d *serial.Datum) (int64, error) {
	encPasses, _ := p.codec.CostProfile()
	shards := splitShards(d, offs, counts, p.st.opt.Parallelism)
	npools := len(p.st.pools)
	home := p.homeIdx(id)

	// Plan: one writeUnit per shard, striping round-robin from the id's home
	// pool, all published with a single block-list update — one hashtable
	// Put, one transaction, all-or-nothing. The engine allocates in ONE
	// batched transaction per touched pool (ascending pool order), runs the
	// concurrent encode wave, and persists after the join.
	g := &planGroup{id: id, dtype: rec.dtype, publish: publishBlockList}
	g.units = make([]writeUnit, len(shards))
	for i := range shards {
		encLen := int64(p.codec.EncodedSize(&shards[i].datum))
		g.units[i] = writeUnit{
			pool:   uint8((home + i) % npools),
			offs:   shards[i].offs,
			counts: shards[i].datum.Dims,
			frags:  []writeFrag{{datum: shards[i].datum, encLen: encLen}},
			encLen: encLen,
			point:  ptBlockShard,
		}
	}
	plan := &writePlan{groups: []*planGroup{g}, fill: fillSharded, encPasses: encPasses}
	if err := p.engine().run(plan); err != nil {
		return 0, err
	}
	var total int64
	for i := range g.units {
		total += g.units[i].wrote
	}
	p.st.parallelStores.Add(1)
	p.st.parallelBlocks.Add(int64(len(shards)))
	return total, nil
}

// storeDatumParallel is StoreDatum's chunked write path for identity-encoding
// codecs (raw): the single destination block is cut into byte ranges copied
// by concurrent workers. Only valid when the codec's encoding is a plain
// payload copy, since workers write disjoint sub-ranges of one encode.
func (p *PMEM) storeDatumParallel(id string, d *serial.Datum) (int64, error) {
	encPasses, _ := p.codec.CostProfile()
	need := int64(len(d.Payload)) + 1
	// Plan: one chunk-filled unit in the id's home pool, published as a
	// value ref. The engine's chunked fill cuts the payload into worker byte
	// ranges and folds the per-chunk CRC32Cs with checksum.Combine after the
	// join, clamping the worker budget to the payload size.
	plan := &writePlan{
		fill:      fillChunked,
		workers:   p.st.opt.Parallelism,
		encPasses: encPasses,
		groups: []*planGroup{{
			id:      id,
			publish: publishValueRef,
			units: []writeUnit{{
				pool:        uint8(p.homeIdx(id)),
				frags:       []writeFrag{{datum: *d, encLen: need - 1}},
				encLen:      need,
				prefix:      true,
				persistFull: true,
				point:       ptDatumChunk,
			}},
		}},
	}
	if err := p.engine().run(plan); err != nil {
		return 0, err
	}
	p.st.parallelStores.Add(1)
	p.st.parallelBlocks.Add(int64(plan.workers))
	return need, nil
}
