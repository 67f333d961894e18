package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"pmemcpy/internal/pmdk"
)

// TestPlanSearchMatchesWalk holds gatherScratch.plan, which binary-searches
// an ascending block list, to the walk over the whole list, its oracle: random
// lists of ranks 1–3 — ascending with gaps, touching, overlapping, descending
// — each asked for a region before the first block, after the last, straddling
// two neighbours, exactly one block, and at random. Every plan must emit the
// walk's units, in the walk's order; only the first two kinds may be marked
// ascending.
func TestPlanSearchMatchesWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(39))
	for iter := 0; iter < 400; iter++ {
		rank := 1 + rng.Intn(3)
		kind := []string{"gapped", "touching", "overlapping", "descending"}[iter%4]
		blocks := planBlocks(rng, kind, rank, 2+rng.Intn(10))
		if got, want := ascending(blocks), kind == "gapped" || kind == "touching"; got != want {
			t.Fatalf("%s rank %d: ascending = %v, want %v", kind, rank, got, want)
		}
		e := &blockIndex{blocks: blocks, hasBlocks: true, ascending: ascending(blocks)}
		for name, req := range planRequests(rng, blocks, rank) {
			var gs, gw gatherScratch
			got := gs.plan(e, req[0], req[1], 8)
			want := gw.walk(blocks, req[0], req[1], 8)
			if len(got) != len(want) || len(want) > 0 && !reflect.DeepEqual(got, want) {
				t.Fatalf("%s rank %d, request %s %v: searched plan\n%v\nwalk\n%v", kind, rank, name, req, got, want)
			}
		}
	}
}

// planBlocks returns n blocks of the given rank, laid out along dim 0 as kind
// says, from dim-0 offset 3 on (so a request fits before the first), each
// with random inner extents.
func planBlocks(rng *rand.Rand, kind string, rank, n int) []blockRec {
	blocks := make([]blockRec, n)
	at := uint64(3)
	for i := range blocks {
		offs, counts := make([]uint64, rank), make([]uint64, rank)
		counts[0] = 1 + uint64(rng.Intn(5))
		for d := 1; d < rank; d++ {
			offs[d], counts[d] = uint64(rng.Intn(4)), 1+uint64(rng.Intn(4))
		}
		switch offs[0] = at; kind {
		case "gapped", "descending":
			at += counts[0] + uint64(rng.Intn(3))
		case "touching":
			at += counts[0]
		case "overlapping":
			at += counts[0]
			if i == 0 || rng.Intn(2) == 0 {
				counts[0]++ // reaches into the next block
			}
		}
		blocks[i] = blockRec{dtype: 1, offs: offs, counts: counts, data: pmdk.PMID(64 * (i + 1)), encLen: 8}
	}
	if kind == "descending" {
		for i, j := 0, n-1; i < j; i, j = i+1, j-1 {
			blocks[i], blocks[j] = blocks[j], blocks[i]
		}
	}
	return blocks
}

// planRequests returns named requests (offs, counts) against blocks; inner
// dims span [0, 8), or at random a narrower range.
func planRequests(rng *rand.Rand, blocks []blockRec, rank int) map[string][2][]uint64 {
	lo, hi := blocks[0].offs[0], blocks[0].offs[0]+blocks[0].counts[0]
	for _, b := range blocks {
		lo, hi = min(lo, b.offs[0]), max(hi, b.offs[0]+b.counts[0])
	}
	req := func(o0, c0 uint64) [2][]uint64 {
		offs, counts := make([]uint64, rank), make([]uint64, rank)
		offs[0], counts[0] = o0, c0
		for d := 1; d < rank; d++ {
			if counts[d] = 8; rng.Intn(2) == 0 {
				offs[d], counts[d] = uint64(rng.Intn(4)), 1+uint64(rng.Intn(4))
			}
		}
		return [2][]uint64{offs, counts}
	}
	// Two neighbours in the list: the last row of the lower one through the
	// first row of the upper one.
	i := rng.Intn(len(blocks) - 1)
	a, b := &blocks[i], &blocks[i+1]
	from := min(a.offs[0]+a.counts[0], b.offs[0]+b.counts[0]) - 1
	to := max(a.offs[0], b.offs[0], from) + 1
	out := map[string][2][]uint64{
		"before":     req(0, lo),
		"after":      req(hi, 4),
		"straddling": req(from, to-from),
		"one block":  {a.offs, a.counts},
	}
	for k := 0; k < 4; k++ {
		o0 := uint64(rng.Intn(int(hi) + 2))
		out[fmt.Sprint("random ", k)] = req(o0, 1+uint64(rng.Intn(int(hi-lo)+2)))
	}
	return out
}
