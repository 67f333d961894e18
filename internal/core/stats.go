package core

import (
	"fmt"
	"math"

	"pmemcpy/internal/serial"
	"pmemcpy/internal/sim"
)

// Statistics queries over stored arrays. This is what BP4's "lightweight
// data characterization" is for: every stored block carries min/max
// characteristics, so aggregate statistics and value-range searches read a
// few header bytes per block instead of the data — the ADIOS-style query
// acceleration the default serializer inherits.

// statsReader is implemented by codecs whose encoded blocks carry min/max
// characteristics (BP4).
type statsReader interface {
	Stats(src []byte) (mn, mx float64, ok bool, err error)
}

// BlockStats describes one stored block of a variable.
type BlockStats struct {
	Offs   []uint64
	Counts []uint64
	// Min and Max are the block's value range (valid when HasStats).
	Min, Max float64
	// HasStats reports whether the range came from stored characteristics
	// (true) or a full data scan fallback (also true) — it is false only
	// for empty blocks.
	HasStats bool
	// Skipped reports that the range was read from block characteristics
	// without touching the payload.
	Skipped bool
	// Pool is the member pool the block lives in (always 0 on a single-pool
	// store).
	Pool int
}

// MinMax returns the value range of array id across all stored blocks. With
// the BP4 codec only block headers are read; other codecs fall back to
// scanning the data.
func (p *PMEM) MinMax(id string) (mn, mx float64, err error) {
	blocks, err := p.statsOf(id)
	if err != nil {
		return 0, 0, err
	}
	if len(blocks) == 0 {
		return 0, 0, fmt.Errorf("core: %q has no stored blocks: %w", id, ErrNotFound)
	}
	mn, mx = math.Inf(1), math.Inf(-1)
	for _, b := range blocks {
		if b.Min < mn {
			mn = b.Min
		}
		if b.Max > mx {
			mx = b.Max
		}
	}
	return mn, mx, nil
}

// FindBlocks returns the blocks of id whose value range intersects
// [lo, hi] — the block-skipping primitive of range queries: blocks whose
// characteristics exclude the range are skipped without reading their data.
func (p *PMEM) FindBlocks(id string, lo, hi float64) ([]BlockStats, error) {
	blocks, err := p.statsOf(id)
	if err != nil {
		return nil, err
	}
	var out []BlockStats
	for _, b := range blocks {
		if b.Max >= lo && b.Min <= hi {
			out = append(out, b)
		}
	}
	return copyStats(out), nil
}

// BlockStatsOf returns per-block statistics for id. Blocks encoded with a
// statistics-carrying codec are summarized from their headers (Skipped);
// others are scanned. The result is memoized in the DRAM block-index cache,
// so repeat MinMax/FindBlocks calls touch neither the device nor the clock
// until a mutation of id invalidates the entry.
//
// Statistics are decoded from stored bytes, so they are a read plan like any
// load (readplan.go): the id's read lock is held from the index lookup through
// the last byte scanned, quarantined blocks fail fast, and under the handle's
// verify mode each block's CRC is recomputed before its header (or payload) is
// trusted. Otherwise a damaged characteristics header would silently skew
// MinMax while every data read stays verified.
func (p *PMEM) BlockStatsOf(id string) ([]BlockStats, error) {
	blocks, err := p.statsOf(id)
	if err != nil {
		return nil, err
	}
	return copyStats(blocks), nil
}

// statsOf is BlockStatsOf without the copy: the memoized slice of the DRAM
// index, which the caller reads and never hands out — the exported queries
// return deep copies, so a caller may mutate what it got freely.
func (p *PMEM) statsOf(id string) ([]BlockStats, error) {
	p.asyncBarrier()
	pl := readPlan{id: id, consume: consumeStats}
	if err := p.reader().run(&pl); err != nil {
		return nil, err
	}
	return pl.stats, nil
}

// copyStats deep-copies memoized BlockStats so callers cannot mutate the
// DRAM index through the returned slices.
func copyStats(stats []BlockStats) []BlockStats {
	if stats == nil {
		return nil
	}
	out := make([]BlockStats, len(stats))
	for i, s := range stats {
		out[i] = s
		out[i].Offs = append([]uint64(nil), s.Offs...)
		out[i].Counts = append([]uint64(nil), s.Counts...)
	}
	return out
}

// blockStats is the read engine's statistics consume step for one verified
// unit: the value range from the block's characteristics header when the
// codec carries one (a handful of bytes, one device latency), else from a
// decode and scan of the payload (a full read pass). Its Offs and Counts are
// the DRAM index's own, as immutable as the entry the statistics join.
func (p *PMEM) blockStats(b blockRec, src []byte, dtype serial.DType) (BlockStats, error) {
	bs := BlockStats{Offs: b.offs, Counts: b.counts, Pool: int(b.pool)}
	if sr, ok := p.codec.(statsReader); ok {
		if mn, mx, okStats, err := sr.Stats(src); err == nil && okStats {
			p.chargeReadLatency()
			bs.Min, bs.Max, bs.HasStats, bs.Skipped = mn, mx, true, true
			return bs, nil
		}
	}
	d := p.gather().slots(1)[0].hint(b.dtype, b.counts)
	if err := p.codec.DecodeTo(src, d); err != nil {
		return bs, err
	}
	p.chargeMove(sim.Load, []poolBytes{{int(b.pool), int64(len(d.Payload))}}, 1, 1)
	bs.Min, bs.Max, bs.HasStats = serial.MinMax(dtype, d.Payload)
	return bs, nil
}
