package main

import (
	"fmt"
	"strings"
	"time"

	"pmemcpy/internal/core"
	"pmemcpy/internal/harness"
	"pmemcpy/internal/mpi"
	"pmemcpy/internal/sim"
)

// viewsSpeedupTarget is the E18 gate: for single-block reads of at least
// viewsGateSize under the identity codec, opening a zero-copy view must be at
// least this much faster than the copying load. The view path exists to
// eliminate the read-bandwidth charge entirely — a leased view moves metadata,
// not bytes — so if aliasing a stored block cannot buy 1.5x over streaming it
// through memcpy, the lease bookkeeping has eaten the point of the layer.
const (
	viewsSpeedupTarget = 1.5
	viewsGateSize      = int64(1 << 20)
)

// viewsCell is one (variant, size) measurement of the E18 sweep.
type viewsCell struct {
	copyT    time.Duration
	viewT    time.Duration
	zeroCopy int64
	fallback int64
}

// runViewsCase stores one size-byte block per rank (identity or bp4 codec)
// and times reps full reads of it through the copying path and through
// LoadBlockView (open, touch, close), virtual time, max over ranks.
func runViewsCase(cfg sim.Config, ranks int, codec string, size int64, reps int) (viewsCell, error) {
	whole, extent := []uint64{0}, []uint64{uint64(size)}
	copyT, viewT, snap, err := rankCase(cfg, ranks, 1, "/e18.pool", []core.MmapOption{core.WithCodec(codec)}, size, size,
		func(c *mpi.Comm, p *core.PMEM, id string, buf []byte) (copyT, viewT time.Duration, err error) {
			if err := p.StoreBlock(id, whole, extent, buf); err != nil {
				return 0, 0, err
			}
			dst := make([]byte, size)
			t0 := c.Clock().Now()
			for r := 0; r < reps; r++ {
				if err := p.LoadBlock(id, whole, extent, dst); err != nil {
					return 0, 0, err
				}
			}
			copyT = c.Clock().Now() - t0
			if dst[0] != buf[0] || dst[size-1] != buf[size-1] {
				return 0, 0, fmt.Errorf("copy read-back mismatch")
			}

			t1 := c.Clock().Now()
			for r := 0; r < reps; r++ {
				v, err := p.LoadBlockView(id, whole, extent)
				if err != nil {
					return 0, 0, err
				}
				raw, err := v.Bytes()
				if err != nil {
					return 0, 0, err
				}
				// Touch both ends: the view is usable data, not just a handle.
				if raw[0] != buf[0] || raw[size-1] != buf[size-1] {
					return 0, 0, fmt.Errorf("view read-back mismatch")
				}
				if err := v.Close(); err != nil {
					return 0, 0, err
				}
			}
			return copyT, c.Clock().Now() - t1, nil
		})
	return viewsCell{
		copyT:    copyT / time.Duration(reps),
		viewT:    viewT / time.Duration(reps),
		zeroCopy: snap.Get("pmemcpy_view_zero_copy_total"),
		fallback: snap.Get("pmemcpy_view_fallback_total"),
	}, err
}

// runViewsAblation is E18: the zero-copy read view experiment. The copying
// load streams every byte through the device's read ports, so its virtual
// time grows with the transfer; a leased view charges one read-latency hop to
// plan and pin the block and never moves the bytes. The sweep holds the
// workload to the view layer's fast path — one stored block, identity codec —
// and varies only the transfer size; the bp4 rows drive the same requests
// through the transparent fallback, where the view must cost what the copy
// costs (plus nothing) and the counters must attribute every open to the
// fallback path.
func runViewsAblation(rankCounts []int, base harness.Params) ([]harness.Result, error) {
	const reps = 4
	ranks := rankCounts[0]
	sizes := []int64{4 << 10, 64 << 10, 1 << 20, 16 << 20, 64 << 20}

	var all []harness.Result
	fmt.Printf("E18 — ZERO-COPY LEASED READ VIEWS (virtual time per read, %d ranks, %d reps):\n", ranks, reps)
	fmt.Printf("%-8s %12s %12s %10s %18s\n", "SIZE", "COPY", "VIEW", "SPEEDUP", "ZERO-COPY/FALLBK")
	fmt.Println(strings.Repeat("-", 64))
	var gateErr error
	for _, size := range sizes {
		cell, err := runViewsCase(base.Config, ranks, "raw", size, reps)
		if err != nil {
			return all, fmt.Errorf("views ablation size=%d: %w", size, err)
		}
		speedup := float64(cell.copyT) / float64(cell.viewT)
		fmt.Printf("%-8s %11.6fs %11.6fs %9.2fx %12d/%d\n",
			sizeLabel(size), cell.copyT.Seconds(), cell.viewT.Seconds(), speedup,
			cell.zeroCopy, cell.fallback)
		if cell.fallback != 0 || cell.zeroCopy == 0 {
			return all, fmt.Errorf("views ablation size=%d: identity-codec single-block reads took the fallback path (%d zero-copy, %d fallback)",
				size, cell.zeroCopy, cell.fallback)
		}
		if size >= viewsGateSize && speedup < viewsSpeedupTarget && gateErr == nil {
			gateErr = fmt.Errorf("views ablation: %s view speedup %.2fx below the %.1fx target",
				sizeLabel(size), speedup, viewsSpeedupTarget)
		}
		for _, row := range []struct {
			variant string
			d       time.Duration
		}{{"copy", cell.copyT}, {"view", cell.viewT}} {
			all = append(all, harness.Result{
				Library: fmt.Sprintf("%s/%s", row.variant, sizeLabel(size)),
				Ranks:   ranks,
				Bytes:   int64(ranks) * size,
				Read:    row.d,
			})
		}
	}

	// Fallback parity: the same sweep point under bp4, where nothing may
	// alias. The view must not be slower than the copy beyond planning noise,
	// and every open must count as a fallback.
	cell, err := runViewsCase(base.Config, ranks, "bp4", viewsGateSize, reps)
	if err != nil {
		return all, fmt.Errorf("views ablation bp4 fallback: %w", err)
	}
	ratio := float64(cell.viewT) / float64(cell.copyT)
	fmt.Printf("\nfallback parity (bp4, %s): copy %.6fs, view %.6fs (%.2fx), %d/%d zero-copy/fallback\n",
		sizeLabel(viewsGateSize), cell.copyT.Seconds(), cell.viewT.Seconds(), ratio,
		cell.zeroCopy, cell.fallback)
	if cell.zeroCopy != 0 || cell.fallback == 0 {
		return all, fmt.Errorf("views ablation: bp4 reads reported %d zero-copy opens, want pure fallback", cell.zeroCopy)
	}
	if ratio > 1.05 {
		return all, fmt.Errorf("views ablation: bp4 fallback view costs %.2fx the copying load, want parity", ratio)
	}
	all = append(all, harness.Result{
		Library: "view-bp4/" + sizeLabel(viewsGateSize),
		Ranks:   ranks,
		Bytes:   int64(ranks) * viewsGateSize,
		Read:    cell.viewT,
	})
	if gateErr != nil {
		return all, gateErr
	}
	fmt.Printf("verdict: zero-copy gate passed (>= %.1fx on single-block reads >= %s)\n\n",
		viewsSpeedupTarget, sizeLabel(viewsGateSize))
	return all, nil
}

func sizeLabel(size int64) string {
	if size >= 1<<20 {
		return fmt.Sprintf("%dM", size>>20)
	}
	return fmt.Sprintf("%dK", size>>10)
}
