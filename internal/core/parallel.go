package core

import (
	"pmemcpy/internal/serial"
)

// Parallel store planners: a large StoreBlock payload is split along its
// slowest-varying dimension into per-shard blocks that worker goroutines
// serialize into PMEM concurrently. Every shard block is reserved with no
// transaction and claimed by the store's ONE metadata update, which publishes
// them all in the variable's block list (a stripe on another member pool is
// claimed first, in one transaction per pool), so a crash anywhere leaves
// either the whole multi-shard store or none of it — never a torn block
// list. The crash-matrix tests drive exactly that property. A large
// StoreDatum payload under an identity codec stays ONE block, cut into
// per-worker byte ranges.
//
// This file only plans (shard the payload, assign stripe pools, cut chunks);
// the commit engine's fill (writeplan.go) runs either as one concurrent wave,
// a job per fragment. Workers only run the codec's EncodeTo into their range
// of a mapped block and checksum it; the coordinator does every clock charge,
// capture and persist — and joins the CRCs of jobs that shared a block with
// checksum.Combine — keeping virtual time and the crash simulator's persist
// ordering deterministic regardless of goroutine scheduling.

// parallelMinBytes is the smallest encoded payload worth sharding; below it
// the per-shard transaction and header overhead outweighs the copy win.
const parallelMinBytes = 256 << 10

// shard is one worker's slice of a parallel store, as cut by splitShards;
// the commit engine carries the execution state (block, bytes written, CRC)
// on the plan's writeUnits.
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

// wideStore reports whether a store of n encoded bytes is worth a concurrent
// wave: the handle has write workers, the layout has pools to fill in place,
// and the payload clears the threshold.
func (p *PMEM) wideStore(n int64) bool {
	return p.st.opt.Parallelism > 1 &&
		!p.st.opt.StagedSerialization && // staging ablation models the serial related work
		p.st.lay.pooled() &&
		n >= parallelMinBytes
}

// parallelEligible reports whether a block store of encSize encoded bytes
// should be sharded along dimension 0.
func (p *PMEM) parallelEligible(counts []uint64, encSize int64) bool {
	return p.wideStore(encSize) && len(counts) > 0 && counts[0] > 1
}

// shardUnits plans StoreBlock's sharded write path: one writeUnit per shard.
// On a sharded namespace the shards stripe round-robin across the member
// pools starting at the id's home pool, so one large store drives every device
// concurrently — the aggregate-bandwidth win E17 sweeps. The engine reserves
// every shard's block with no transaction, fills the shards as one concurrent
// wave, persists after the join, claims the stripes off the home pool in one
// transaction per pool and the home-pool blocks in the publish; the shards
// publish as separate block records, so their CRCs need no joining.
func (p *PMEM) shardUnits(id string, d *serial.Datum, offs, counts []uint64) []writeUnit {
	shards := splitShards(d, offs, counts, p.st.opt.Parallelism)
	npools := len(p.st.pools)
	home := p.homeIdx(id)
	units := make([]writeUnit, len(shards))
	for i := range shards {
		encLen := int64(p.codec.EncodedSize(&shards[i].datum))
		units[i] = writeUnit{
			pool:   uint8((home + i) % npools),
			offs:   shards[i].offs,
			counts: shards[i].datum.Dims,
			frags:  []writeFrag{{datum: &shards[i].datum, encLen: encLen}},
			encLen: encLen,
			point:  ptBlockShard,
		}
	}
	return units
}

// chunkFrags plans StoreDatum's chunked write path: the payload of one
// identity-encoded whole value cut into at most `workers` contiguous byte
// ranges, each a fragment concurrent workers copy into their range of the
// value's single block. Only valid when the codec's encoding is a plain
// payload copy (which is all a Bytes fragment asks of it), since workers write
// disjoint sub-ranges of one encode.
func chunkFrags(payload []byte, workers int) []writeFrag {
	n := int64(len(payload))
	workers = int(min(int64(workers), n))
	chunk := (n + int64(workers) - 1) / int64(workers)
	frags := make([]writeFrag, workers)
	for w := range frags {
		lo := min(int64(w)*chunk, n)
		hi := min(lo+chunk, n)
		frags[w] = writeFrag{datum: &serial.Datum{Type: serial.Bytes, Payload: payload[lo:hi]}, encLen: hi - lo}
	}
	return frags
}
