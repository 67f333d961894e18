package core_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"pmemcpy/internal/bytesview"
	"pmemcpy/internal/core"
	"pmemcpy/internal/mpi"
	"pmemcpy/internal/node"
	"pmemcpy/internal/pmem"
	"pmemcpy/internal/serial"
	"pmemcpy/internal/sim"
)

// uniformF64 returns elems float64s all equal to v, as bytes.
func uniformF64(elems int, v float64) []byte {
	vals := make([]float64, elems)
	for i := range vals {
		vals[i] = v
	}
	return bytesview.Bytes(vals)
}

// loadUniformF64 loads the full 1-D array id and asserts it is uniform,
// returning the value.
func loadUniformF64(p *core.PMEM, id string, elems int) (float64, error) {
	dst := make([]byte, elems*8)
	if err := p.LoadBlock(id, []uint64{0}, []uint64{uint64(elems)}, dst); err != nil {
		return 0, err
	}
	vals := bytesview.OfCopy[float64](dst)
	for i, v := range vals {
		if v != vals[0] {
			return 0, fmt.Errorf("%s torn: [0]=%g but [%d]=%g", id, vals[0], i, v)
		}
	}
	return vals[0], nil
}

// exploreSerialScript is the canonical serial workload: block overwrite,
// datum republish (an inline value, and one too large to inline: the payload
// flush of core.commit.datum), delete, and compaction — every serial mutation
// the store offers, in one deterministic sequence. Verify accepts exactly the states a
// prefix-atomic execution can recover to.
func exploreSerialScript() core.Script {
	const elems = 96
	large := func(b byte) *serial.Datum {
		return &serial.Datum{Type: serial.Bytes, Payload: bytes.Repeat([]byte{b}, 300)}
	}
	return core.Script{
		Name:    "serial",
		DevSize: 8 << 20,
		Setup: func(p *core.PMEM) error {
			if err := p.Alloc("A", serial.Float64, []uint64{elems}); err != nil {
				return err
			}
			if err := p.StoreBlock("A", []uint64{0}, []uint64{elems / 2},
				uniformF64(elems/2, 1)); err != nil {
				return err
			}
			if err := p.StoreBlock("A", []uint64{elems / 2}, []uint64{elems / 2},
				uniformF64(elems/2, 1)); err != nil {
				return err
			}
			if err := p.StoreDatum("D",
				&serial.Datum{Type: serial.Bytes, Payload: []byte("old-datum")}); err != nil {
				return err
			}
			if err := p.StoreDatum("L", large('o')); err != nil {
				return err
			}
			if err := p.Alloc("G", serial.Float64, []uint64{8}); err != nil {
				return err
			}
			return p.StoreBlock("G", []uint64{0}, []uint64{8}, uniformF64(8, 7))
		},
		Run: func(p *core.PMEM) error {
			if err := p.StoreBlock("A", []uint64{0}, []uint64{elems},
				uniformF64(elems, 2)); err != nil {
				return err
			}
			if err := p.StoreDatum("D",
				&serial.Datum{Type: serial.Bytes, Payload: []byte("new-datum-value")}); err != nil {
				return err
			}
			// A brand-new key, so the hashtable INSERT path (not just value
			// republish) is under injection too.
			if err := p.StoreDatum("E",
				&serial.Datum{Type: serial.Bytes, Payload: []byte("fresh-key")}); err != nil {
				return err
			}
			if _, err := p.Delete("G"); err != nil {
				return err
			}
			if _, err := p.Compact(context.Background(), "A"); err != nil {
				return err
			}
			return p.StoreDatum("L", large('n'))
		},
		Verify: func(p *core.PMEM) error {
			dt, dims, err := p.LoadDims("A")
			if err != nil {
				return fmt.Errorf("dims of A: %w", err)
			}
			if dt != serial.Float64 || len(dims) != 1 || dims[0] != elems {
				return fmt.Errorf("dims of A corrupt: %v %v", dt, dims)
			}
			a, err := loadUniformF64(p, "A", elems)
			if err != nil {
				return err
			}
			if a != 1 && a != 2 {
				return fmt.Errorf("A = all %g, want 1 or 2", a)
			}
			d, err := p.LoadDatum("D")
			if err != nil {
				return fmt.Errorf("datum D: %w", err)
			}
			dOld := bytes.Equal(d.Payload, []byte("old-datum"))
			dNew := bytes.Equal(d.Payload, []byte("new-datum-value"))
			if !dOld && !dNew {
				return fmt.Errorf("D = %q, want old or new value", d.Payload)
			}
			var ePresent bool
			if e, err := p.LoadDatum("E"); err == nil {
				ePresent = true
				if !bytes.Equal(e.Payload, []byte("fresh-key")) {
					return fmt.Errorf("E = %q, want fresh-key", e.Payload)
				}
			} else if !errors.Is(err, core.ErrNotFound) {
				return fmt.Errorf("E: %w", err)
			}
			var gDeleted bool
			if g, err := loadUniformF64(p, "G", 8); err == nil {
				if g != 7 {
					return fmt.Errorf("G = all %g, want 7", g)
				}
			} else if errors.Is(err, core.ErrNotFound) {
				gDeleted = true
			} else {
				return fmt.Errorf("G: %w", err)
			}
			// The run is strictly sequential, so later effects imply earlier
			// ones: a republished datum implies the overwrite committed, an
			// inserted E implies the republish committed, a deleted G implies
			// the insert committed.
			if dNew && a != 2 {
				return fmt.Errorf("D is new but A = all %g", a)
			}
			if ePresent && !dNew {
				return fmt.Errorf("E inserted but D = %q", d.Payload)
			}
			if gDeleted && !ePresent {
				return fmt.Errorf("G deleted but E absent")
			}
			l, err := p.LoadDatum("L")
			if err != nil {
				return fmt.Errorf("datum L: %w", err)
			}
			if !bytes.Equal(l.Payload, large('o').Payload) && (!bytes.Equal(l.Payload, large('n').Payload) || !gDeleted) {
				return fmt.Errorf("L = %q... (G deleted=%v), want old, or new after the delete", l.Payload[:8], gDeleted)
			}
			// MinMax ranges over live AND shadowed blocks, so it widens to
			// {1,2} once the overwrite commits — but it must always contain
			// the visible data and never a value that was never stored.
			mn, mx, err := p.MinMax("A")
			if err != nil {
				return fmt.Errorf("minmax of A: %w", err)
			}
			if mn > a || mx < a || mn < 1 || mx > 2 {
				return fmt.Errorf("MinMax(A) = [%g, %g] with A = all %g", mn, mx, a)
			}
			return nil
		},
		VerifyDone: func(p *core.PMEM) error {
			a, err := loadUniformF64(p, "A", elems)
			if err != nil {
				return err
			}
			if a != 2 {
				return fmt.Errorf("A = all %g after complete run, want 2", a)
			}
			// Compact must have pruned the two shadowed halves.
			blocks, err := p.BlockStatsOf("A")
			if err != nil {
				return err
			}
			if len(blocks) != 1 {
				return fmt.Errorf("A has %d blocks after Compact, want 1", len(blocks))
			}
			if _, err := loadUniformF64(p, "G", 8); !errors.Is(err, core.ErrNotFound) {
				return fmt.Errorf("G after Delete: %v, want ErrNotFound", err)
			}
			d, err := p.LoadDatum("D")
			if err != nil {
				return err
			}
			if !bytes.Equal(d.Payload, []byte("new-datum-value")) {
				return fmt.Errorf("D = %q after complete run", d.Payload)
			}
			if e, err := p.LoadDatum("E"); err != nil || !bytes.Equal(e.Payload, []byte("fresh-key")) {
				return fmt.Errorf("E after complete run: %v, %v", e, err)
			}
			if l, err := p.LoadDatum("L"); err != nil || !bytes.Equal(l.Payload, large('n').Payload) {
				return fmt.Errorf("L after complete run: %v", err)
			}
			return nil
		},
	}
}

// exploreParallelScript overwrites payloads above the parallel threshold
// with 4 workers, so both sharded copy engines (StoreBlock shards and
// StoreDatum chunks, via the identity codec) and their single-publish
// protocols are under injection; Verify's full-extent read on a 4-worker
// handle also drives the parallel gather engine over every recovered state.
func exploreParallelScript() core.Script {
	const elems = 32768 // 256 KB: exactly the parallel-path threshold
	datum := func(b byte) *serial.Datum {
		return &serial.Datum{Type: serial.Bytes, Payload: bytes.Repeat([]byte{b}, 256<<10)}
	}
	return core.Script{
		Name:    "parallel",
		DevSize: 32 << 20,
		Options: &core.Options{Parallelism: 4, Codec: "raw"},
		Setup: func(p *core.PMEM) error {
			if err := p.Alloc("A", serial.Float64, []uint64{elems}); err != nil {
				return err
			}
			if err := p.StoreBlock("A", []uint64{0}, []uint64{elems},
				uniformF64(elems, 1)); err != nil {
				return err
			}
			return p.StoreDatum("B", datum('x'))
		},
		Run: func(p *core.PMEM) error {
			if err := p.StoreBlock("A", []uint64{0}, []uint64{elems},
				uniformF64(elems, 2)); err != nil {
				return err
			}
			return p.StoreDatum("B", datum('y'))
		},
		Verify: func(p *core.PMEM) error {
			a, err := loadUniformF64(p, "A", elems)
			if err != nil {
				return err
			}
			if a != 1 && a != 2 {
				return fmt.Errorf("A = all %g, want 1 or 2", a)
			}
			mn, mx, err := p.MinMax("A")
			if err != nil {
				return err
			}
			if mn > a || mx < a || mn < 1 || mx > 2 {
				return fmt.Errorf("MinMax(A) = [%g, %g] with A = all %g", mn, mx, a)
			}
			b, err := p.LoadDatum("B")
			if err != nil {
				return fmt.Errorf("datum B: %w", err)
			}
			if len(b.Payload) != 256<<10 {
				return fmt.Errorf("B is %d bytes, want %d", len(b.Payload), 256<<10)
			}
			for i, c := range b.Payload {
				if c != b.Payload[0] {
					return fmt.Errorf("B torn: [0]=%q but [%d]=%q", b.Payload[0], i, c)
				}
			}
			if b.Payload[0] != 'x' && b.Payload[0] != 'y' {
				return fmt.Errorf("B = all %q, want x or y", b.Payload[0])
			}
			if b.Payload[0] == 'y' && a != 2 {
				return fmt.Errorf("B republished but A = all %g", a)
			}
			return nil
		},
		VerifyDone: func(p *core.PMEM) error {
			a, err := loadUniformF64(p, "A", elems)
			if err != nil {
				return err
			}
			if a != 2 {
				return fmt.Errorf("A = all %g after complete run, want 2", a)
			}
			b, err := p.LoadDatum("B")
			if err != nil {
				return err
			}
			if len(b.Payload) == 0 || b.Payload[0] != 'y' {
				return fmt.Errorf("B not republished after complete run")
			}
			st, err := p.Stats()
			if err != nil {
				return err
			}
			if st.ParallelStores == 0 {
				return fmt.Errorf("store took the serial path despite Parallelism=4")
			}
			return nil
		},
	}
}

// runExplore runs a full exploration and enforces the acceptance criteria:
// every persist point the workload reached was crash-tested, recovery
// verification passed at every one of them, and — the integrity layer's
// reason to exist — not a single simulation produced wrong values while
// every published CRC checked out. Escapes are asserted separately from
// Failures so a silent-corruption regression is named as such, not buried
// in a generic verification failure.
func runExplore(t *testing.T, s core.Script, o core.ExploreOptions) *core.ExploreReport {
	t.Helper()
	o.Logf = t.Logf
	rep, err := core.Explore(s, o)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", rep.Format())
	if rep.Ops == 0 {
		t.Fatal("trace recorded no persist operations")
	}
	if un := rep.Unexplored(); len(un) > 0 {
		t.Errorf("unexplored persist points: %v", un)
	}
	for _, e := range rep.Escapes {
		t.Errorf("SILENT ESCAPE (wrong values, clean CRCs): %s", e)
	}
	for _, f := range rep.Failures {
		t.Errorf("FAIL: %s", f)
	}
	return rep
}

func TestExploreSerialScript(t *testing.T) {
	runExplore(t, exploreSerialScript(), core.ExploreOptions{Tear: true})
}

func TestExploreParallelScript(t *testing.T) {
	runExplore(t, exploreParallelScript(), core.ExploreOptions{Tear: true})
}

// persistPointNames extracts the sorted set of persist-point names from a
// trace.
func persistPointNames(events []pmem.TraceEvent) []string {
	seen := make(map[string]bool)
	for _, ev := range events {
		if ev.Kind == pmem.EventPersist {
			seen[pmem.PointName(ev.Point)] = true
		}
	}
	out := make([]string, 0, len(seen))
	for n := range seen {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// TestPersistPointCoverageGolden pins the set of persist points the canonical
// workloads reach against testdata/persist_points.golden. Coverage must not
// shrink — a missing point means a persist lost its instrumentation or a
// code path stopped being exercised. Growth fails too, deliberately: new
// persist points must be added to the golden file with intent, because each
// one widens the crash-consistency surface the explorer must keep passing.
func TestPersistPointCoverageGolden(t *testing.T) {
	seen := make(map[string]bool)
	for _, s := range []core.Script{exploreSerialScript(), exploreParallelScript()} {
		events, err := core.TraceScript(s)
		if err != nil {
			t.Fatalf("trace %q: %v", s.Name, err)
		}
		for _, n := range persistPointNames(events) {
			seen[n] = true
		}
	}
	var got []string
	for n := range seen {
		got = append(got, n)
	}
	sort.Strings(got)

	goldenPath := filepath.Join("testdata", "persist_points.golden")
	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("reading golden file (regenerate by writing the list below to %s): %v\n%s",
			goldenPath, err, strings.Join(got, "\n"))
	}
	var want []string
	for _, line := range strings.Split(string(raw), "\n") {
		if line = strings.TrimSpace(line); line != "" && !strings.HasPrefix(line, "#") {
			want = append(want, line)
		}
	}
	sort.Strings(want)

	gotSet := make(map[string]bool, len(got))
	for _, n := range got {
		gotSet[n] = true
	}
	for _, n := range want {
		if !gotSet[n] {
			t.Errorf("coverage shrank: persist point %q in %s is no longer reached", n, goldenPath)
		}
	}
	wantSet := make(map[string]bool, len(want))
	for _, n := range want {
		wantSet[n] = true
	}
	for _, n := range got {
		if !wantSet[n] {
			t.Errorf("new persist point %q not in %s — if intended, add it to the golden file",
				n, goldenPath)
		}
	}
}

// TestExploreCacheCoherence drives satellite: a crash between a publish and
// the DRAM cache invalidation must never let a REOPENED pool serve stale
// dims, block lists, or min/max. Setup deliberately warms the dying handle's
// cache (MinMax + LoadBlock build the index); after every injected crash the
// fresh handle's MinMax and block list must be consistent with a scan of the
// data it actually serves.
func TestExploreCacheCoherence(t *testing.T) {
	const elems = 64
	s := core.Script{
		Name:    "cache",
		DevSize: 8 << 20,
		Setup: func(p *core.PMEM) error {
			if err := p.Alloc("A", serial.Float64, []uint64{elems}); err != nil {
				return err
			}
			if err := p.StoreBlock("A", []uint64{0}, []uint64{elems},
				uniformF64(elems, 1)); err != nil {
				return err
			}
			// Warm the DRAM index of the handle that is about to die.
			if mn, mx, err := p.MinMax("A"); err != nil || mn != 1 || mx != 1 {
				return fmt.Errorf("warmup MinMax = [%g, %g], %v", mn, mx, err)
			}
			_, err := loadUniformF64(p, "A", elems)
			return err
		},
		Run: func(p *core.PMEM) error {
			return p.StoreBlock("A", []uint64{0}, []uint64{elems}, uniformF64(elems, 2))
		},
		Verify: func(p *core.PMEM) error {
			// This handle was opened after the crash: its cache must reflect
			// the media, not the dead handle's warmed index.
			a, err := loadUniformF64(p, "A", elems)
			if err != nil {
				return err
			}
			blocks, err := p.BlockStatsOf("A")
			if err != nil {
				return err
			}
			mn, mx, err := p.MinMax("A")
			if err != nil {
				return err
			}
			if a == 2 {
				// New data committed on media. A stale served index would
				// still show the warmed single all-1s block: one block with
				// max 1.
				if len(blocks) < 2 {
					return fmt.Errorf("overwrite visible but block list has %d block(s): stale index", len(blocks))
				}
				if mx != 2 {
					return fmt.Errorf("A = all 2 but MinMax = [%g, %g]: stale statistics", mn, mx)
				}
			} else if a == 1 {
				if mn != 1 || mx != 1 {
					return fmt.Errorf("A = all 1 but MinMax = [%g, %g]", mn, mx)
				}
			} else {
				return fmt.Errorf("A = all %g, want 1 or 2", a)
			}
			return nil
		},
	}
	runExplore(t, s, core.ExploreOptions{})
}

// TestBlockcacheFreshAfterCrash is the directed satellite check: kill the
// device at the very last persist of an overwrite under a keep-all adversary
// (so the committed new state survives on media), with the dying handle's
// DRAM index warmed to the OLD state — and require the post-crash handle to
// serve the new block list and statistics, never the dead handle's cache.
func TestBlockcacheFreshAfterCrash(t *testing.T) {
	const elems = 64
	setup := func(p *core.PMEM) error {
		if err := p.Alloc("A", serial.Float64, []uint64{elems}); err != nil {
			return err
		}
		if err := p.StoreBlock("A", []uint64{0}, []uint64{elems},
			uniformF64(elems, 1)); err != nil {
			return err
		}
		// Warm the dying handle's index with the all-1s state.
		if mn, mx, err := p.MinMax("A"); err != nil || mn != 1 || mx != 1 {
			return fmt.Errorf("warmup MinMax = [%g, %g], %v", mn, mx, err)
		}
		return nil
	}
	run := func(p *core.PMEM) error {
		return p.StoreBlock("A", []uint64{0}, []uint64{elems}, uniformF64(elems, 2))
	}

	// Find the overwrite's final persist ordinal from a trace pass.
	events, err := core.TraceScript(core.Script{
		Name: "cache-directed", DevSize: 8 << 20, Setup: setup, Run: run,
	})
	if err != nil {
		t.Fatal(err)
	}
	lastOp := int64(-1)
	for _, ev := range events {
		if ev.Kind == pmem.EventPersist {
			lastOp = ev.Op
		}
	}
	if lastOp < 0 {
		t.Fatal("trace recorded no persists")
	}

	// Replay, failing exactly the final persist under a keep-all adversary:
	// every earlier (and the in-flight) write survives on media, so the
	// overwrite is durably published — but the handle that cached the old
	// index died with the power.
	n := node.New(sim.DefaultConfig(), 8<<20,
		node.WithDeviceOptions(pmem.WithCrashTracking()))
	n.Machine.SetConcurrency(1)
	_, err = mpi.Run(n.Machine, 1, func(c *mpi.Comm) error {
		p, err := core.Mmap(c, n, "/cache.pool")
		if err != nil {
			return err
		}
		if err := setup(p); err != nil {
			return err
		}
		n.Device.ArmCrashAtOp(lastOp, 0)
		if rerr := run(p); !errors.Is(rerr, pmem.ErrFailed) {
			return fmt.Errorf("run: %v, want injected device failure", rerr)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	n.Device.Crash(pmem.CrashKeepAll, nil)

	_, err = mpi.Run(n.Machine, 1, func(c *mpi.Comm) error {
		p, err := core.Mmap(c, n, "/cache.pool")
		if err != nil {
			return err
		}
		a, err := loadUniformF64(p, "A", elems)
		if err != nil {
			return err
		}
		if a != 2 {
			return fmt.Errorf("A = all %g after keep-all crash at final persist, want 2", a)
		}
		blocks, err := p.BlockStatsOf("A")
		if err != nil {
			return err
		}
		if len(blocks) < 2 {
			return fmt.Errorf("block list has %d block(s): served from a stale index", len(blocks))
		}
		if _, mx, err := p.MinMax("A"); err != nil || mx != 2 {
			return fmt.Errorf("MinMax max = %g (%v): stale statistics survived the crash", mx, err)
		}
		return p.Munmap()
	})
	if err != nil {
		t.Fatal(err)
	}
}
