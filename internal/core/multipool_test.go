package core_test

// Multi-pool sharded namespace tests: placement, round-trips, reopen,
// configuration errors, quarantine containment across pools, the
// crash-consistency of the cross-pool commit (directed exploration of every
// persist in the prepare/publish window), striped-workload exploration, and
// the -race stress gate for one handle spanning several member pools.

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"pmemcpy/internal/checksum"
	"pmemcpy/internal/core"
	"pmemcpy/internal/fsck"
	"pmemcpy/internal/mpi"
	"pmemcpy/internal/node"
	"pmemcpy/internal/pmdk"
	"pmemcpy/internal/pmem"
	"pmemcpy/internal/serial"
	"pmemcpy/internal/sim"
)

// multiNode builds a node with one crash-tracked PMEM device (and DAX fs) per
// member pool.
func multiNode(pools int, devSize int64, conc int) *node.Node {
	n := node.New(sim.DefaultConfig(), devSize,
		node.WithDeviceOptions(pmem.WithCrashTracking()),
		node.WithPMEMPools(pools))
	n.Machine.SetConcurrency(conc)
	return n
}

// multi runs fn as a 1-rank job on a fresh npools-member store.
func multi(t *testing.T, pools int, opts *core.Options, fn func(p *core.PMEM) error) {
	t.Helper()
	n := multiNode(pools, 64<<20, 1)
	_, err := mpi.Run(n.Machine, 1, func(c *mpi.Comm) error {
		p, err := core.Mmap(c, n, "/multi.pool", core.OptionsArg(opts))
		if err != nil {
			return err
		}
		if err := fn(p); err != nil {
			return err
		}
		return p.Munmap()
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestMultiPoolPlacement pins the placement contract: deterministic spread
// over the member pools, a variable's "#dims" companion co-located with it,
// and reserved '#' keys pinned to pool 0.
func TestMultiPoolPlacement(t *testing.T) {
	multi(t, 4, nil, func(p *core.PMEM) error {
		if got := p.Pools(); got != 4 {
			t.Errorf("Pools() = %d, want 4", got)
		}
		seen := map[int]bool{}
		for i := 0; i < 32; i++ {
			id := fmt.Sprintf("var%d", i)
			h := p.HomePool(id)
			if h < 0 || h > 3 {
				t.Fatalf("HomePool(%q) = %d, out of range", id, h)
			}
			seen[h] = true
			if hd := p.HomePool(id + core.DimsSuffix); hd != h {
				t.Errorf("HomePool(%q%s) = %d, but base is %d", id, core.DimsSuffix, hd, h)
			}
		}
		if len(seen) < 3 {
			t.Errorf("32 ids spread over only %d of 4 pools", len(seen))
		}
		if h := p.HomePool("#quarantine"); h != 0 {
			t.Errorf("HomePool(#quarantine) = %d, want pinned to 0", h)
		}
		return nil
	})
}

// TestMultiPoolRoundTrip stores datums, strings, and a striped parallel array
// across 4 pools and reads everything back through one handle.
func TestMultiPoolRoundTrip(t *testing.T) {
	const elems = 1 << 16 // 512 KB of f64: above the parallel threshold
	opts := &core.Options{Codec: "raw", Parallelism: 4, ReadParallelism: 4}
	multi(t, 4, opts, func(p *core.PMEM) error {
		// Serial datums: each lives whole in its home pool.
		for i := 0; i < 12; i++ {
			id := fmt.Sprintf("d%d", i)
			val := bytes.Repeat([]byte{byte('a' + i)}, 100+i)
			if err := p.StoreDatum(id, &serial.Datum{Type: serial.Bytes, Payload: val}); err != nil {
				return fmt.Errorf("store %s: %w", id, err)
			}
		}
		// One large array: shards stripe over every member pool.
		if err := p.Alloc("grid", serial.Float64, []uint64{elems}); err != nil {
			return err
		}
		if err := p.StoreBlock("grid", []uint64{0}, []uint64{elems},
			uniformF64(elems, 7)); err != nil {
			return err
		}
		blocks, err := p.BlockStatsOf("grid")
		if err != nil {
			return err
		}
		pools := map[int]bool{}
		for _, b := range blocks {
			pools[b.Pool] = true
		}
		if len(pools) != 4 {
			t.Errorf("grid blocks landed on %d pools %v, want striped over all 4", len(pools), pools)
		}
		if v, err := loadUniformF64(p, "grid", elems); err != nil || v != 7 {
			return fmt.Errorf("grid readback = %g, %v", v, err)
		}
		for i := 0; i < 12; i++ {
			id := fmt.Sprintf("d%d", i)
			d, err := p.LoadDatum(id)
			if err != nil {
				return fmt.Errorf("load %s: %w", id, err)
			}
			want := bytes.Repeat([]byte{byte('a' + i)}, 100+i)
			if !bytes.Equal(d.Payload, want) {
				return fmt.Errorf("%s round-trip mismatch", id)
			}
		}
		// The namespace is the union of every member's metadata shard.
		keys, err := p.Keys()
		if err != nil {
			return err
		}
		if len(keys) != 12+2 { // 12 datums + grid + grid#dims
			t.Errorf("Keys() = %d entries %v, want 14", len(keys), keys)
		}
		if existed, err := p.Delete("d3"); err != nil || !existed {
			return fmt.Errorf("delete d3: existed=%v, %v", existed, err)
		}
		if _, err := p.LoadDatum("d3"); !errors.Is(err, core.ErrNotFound) {
			return fmt.Errorf("load of deleted d3 = %v, want ErrNotFound", err)
		}
		return nil
	})
}

// TestMultiPoolMetricsSumMembers pins the Metrics() bridge on a sharded
// namespace: the allocator series equal the sum over the member pools,
// and the device series count every member's persists, not only member 0's.
func TestMultiPoolMetricsSumMembers(t *testing.T) {
	const elems = 1 << 16 // 512 KB of f64: striped over all four pools
	n := multiNode(4, 64<<20, 1)
	_, err := mpi.Run(n.Machine, 1, func(c *mpi.Comm) error {
		p, err := core.Mmap(c, n, "/metrics.pool", core.WithCodec("raw"), core.WithParallelism(4))
		if err != nil {
			return err
		}
		if err := p.Alloc("grid", serial.Float64, []uint64{elems}); err != nil {
			return err
		}
		if err := p.StoreBlock("grid", []uint64{0}, []uint64{elems}, uniformF64(elems, 3)); err != nil {
			return err
		}
		if _, err := p.Delete("grid"); err != nil {
			return err
		}
		var sum pmdk.Stats
		for _, ps := range p.PoolStats() {
			sum.Allocs += ps.Allocs
			sum.Frees += ps.Frees
			sum.Transactions += ps.Transactions
			sum.Aborts += ps.Aborts
			sum.Recovered += ps.Recovered
			sum.ArenaSteals += ps.ArenaSteals
		}
		snap := p.Metrics()
		for name, want := range map[string]int64{
			"pmemcpy_alloc_allocs_total":       sum.Allocs,
			"pmemcpy_alloc_frees_total":        sum.Frees,
			"pmemcpy_alloc_transactions_total": sum.Transactions,
			"pmemcpy_alloc_aborts_total":       sum.Aborts,
			"pmemcpy_alloc_recovered_total":    sum.Recovered,
			"pmemcpy_alloc_arena_steals_total": sum.ArenaSteals,
		} {
			if got := snap.Get(name); got != want {
				t.Errorf("%s = %d, the members sum to %d", name, got, want)
			}
		}
		if sum.Allocs <= p.PoolStats()[0].Allocs {
			t.Errorf("only member 0 allocated (%d of %d): the store did not stripe", p.PoolStats()[0].Allocs, sum.Allocs)
		}
		var persists int64
		for i := 0; i < n.Pools(); i++ {
			persists += n.DeviceAt(i).Counters().Persists
		}
		member0 := n.Device.Counters().Persists
		if got := snap.Get("pmemcpy_device_persists_total"); got != persists || got <= member0 {
			t.Errorf("pmemcpy_device_persists_total = %d, want the members' total %d (member 0 alone: %d)",
				got, persists, member0)
		}
		return p.Munmap()
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestMultiPoolReopen closes a 4-pool namespace and reopens it: placement is
// recomputed, every member's shard is found again, and data reads back.
func TestMultiPoolReopen(t *testing.T) {
	const elems = 1 << 15
	n := multiNode(4, 64<<20, 1)
	opts := &core.Options{Codec: "raw", Parallelism: 4}
	_, err := mpi.Run(n.Machine, 1, func(c *mpi.Comm) error {
		p, err := core.Mmap(c, n, "/reopen.pool", core.OptionsArg(opts))
		if err != nil {
			return err
		}
		for i := 0; i < 8; i++ {
			id := fmt.Sprintf("k%d", i)
			if err := p.StoreDatum(id, &serial.Datum{Type: serial.Bytes,
				Payload: []byte(strings.Repeat(id, 9))}); err != nil {
				return err
			}
		}
		if err := p.Alloc("A", serial.Float64, []uint64{elems}); err != nil {
			return err
		}
		if err := p.StoreBlock("A", []uint64{0}, []uint64{elems}, uniformF64(elems, 3)); err != nil {
			return err
		}
		return p.Munmap()
	})
	if err != nil {
		t.Fatal(err)
	}
	_, err = mpi.Run(n.Machine, 1, func(c *mpi.Comm) error {
		p, err := core.Mmap(c, n, "/reopen.pool", core.OptionsArg(opts))
		if err != nil {
			return err
		}
		for i := 0; i < 8; i++ {
			id := fmt.Sprintf("k%d", i)
			d, err := p.LoadDatum(id)
			if err != nil {
				return fmt.Errorf("load %s after reopen: %w", id, err)
			}
			if string(d.Payload) != strings.Repeat(id, 9) {
				return fmt.Errorf("%s mismatch after reopen", id)
			}
		}
		if v, err := loadUniformF64(p, "A", elems); err != nil || v != 3 {
			return fmt.Errorf("A after reopen = %g, %v", v, err)
		}
		if got := p.Pools(); got != 4 {
			return fmt.Errorf("reopen mapped %d member pools, want 4", got)
		}
		return p.Munmap()
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestMultiPoolConfigErrors pins the one configuration a multi-device node
// refuses: the hierarchy layout, which has no sharded variant.
func TestMultiPoolConfigErrors(t *testing.T) {
	t.Run("hierarchy-layout", func(t *testing.T) {
		n := multiNode(4, 32<<20, 1)
		_, err := mpi.Run(n.Machine, 1, func(c *mpi.Comm) error {
			_, merr := core.Mmap(c, n, "/bad.pool", core.WithLayout(core.LayoutHierarchy))
			if merr == nil {
				return fmt.Errorf("Mmap accepted the hierarchy layout on a 4-device node")
			}
			if !strings.Contains(merr.Error(), "hashtable") || !strings.Contains(merr.Error(), "4") {
				return fmt.Errorf("Mmap error = %q, want the device count and the hashtable layout named", merr)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	})
}

// TestNamespaceSpansNodeDevices pins where the member pool count comes from:
// Mmap with no options on a 4-device node maps 4 member pools, and a parallel
// store above the sharding threshold stripes over all of them.
func TestNamespaceSpansNodeDevices(t *testing.T) {
	const elems = 1 << 16 // 512 KB of f64: above the parallel threshold
	n := multiNode(4, 64<<20, 1)
	_, err := mpi.Run(n.Machine, 1, func(c *mpi.Comm) error {
		p, err := core.Mmap(c, n, "/span.pool")
		if err != nil {
			return err
		}
		if got := p.Pools(); got != 4 {
			return fmt.Errorf("Pools() = %d on a 4-device node, want 4", got)
		}
		if err := p.Munmap(); err != nil {
			return err
		}
		if p, err = core.Mmap(c, n, "/span.pool", core.WithParallelism(4)); err != nil {
			return err
		}
		if err := p.Alloc("grid", serial.Float64, []uint64{elems}); err != nil {
			return err
		}
		if err := p.StoreBlock("grid", []uint64{0}, []uint64{elems}, uniformF64(elems, 2)); err != nil {
			return err
		}
		blocks, err := p.BlockStatsOf("grid")
		if err != nil {
			return err
		}
		pools := map[int]bool{}
		for _, b := range blocks {
			pools[b.Pool] = true
		}
		if len(pools) != 4 {
			return fmt.Errorf("the striped store's %d blocks sit on %d pools, want all 4", len(blocks), len(pools))
		}
		return p.Munmap()
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestMultiPoolQuarantine runs the containment contract on a sharded
// namespace: a corrupt block on a non-zero member pool is quarantined by the
// scrubber, the quarantine list (which lives in pool 0 but records
// pool-qualified blocks) survives reopen, reads keep failing fast, and
// deleting the variable clears the entries.
func TestMultiPoolQuarantine(t *testing.T) {
	n := multiNode(4, 64<<20, 1)
	var victim string
	_, err := mpi.Run(n.Machine, 1, func(c *mpi.Comm) error {
		p, err := core.Mmap(c, n, "/quar.pool")
		if err != nil {
			return err
		}
		for i := 0; i < 8; i++ {
			id := fmt.Sprintf("q%d", i)
			if err := p.Alloc(id, serial.Float64, []uint64{64}); err != nil {
				return err
			}
			if err := p.StoreBlock(id, []uint64{0}, []uint64{64}, uniformF64(64, float64(i))); err != nil {
				return err
			}
			// Pick a victim whose blocks live off pool 0, so the quarantine
			// record must carry the pool index to mean anything.
			if victim == "" && p.HomePool(id) != 0 {
				victim = id
			}
		}
		if victim == "" {
			return fmt.Errorf("no variable landed off pool 0")
		}
		if _, _, err := p.InjectCorruption(victim, 0, 16, 1, 0xff); err != nil {
			return err
		}
		rep, err := p.Scrub(context.Background())
		if err != nil {
			return err
		}
		if rep.Corruptions != 1 || rep.Quarantined != 1 {
			t.Errorf("scrub: %+v, want exactly the damaged block quarantined", rep)
		}
		if _, err := loadUniformF64(p, victim, 64); !errors.Is(err, core.ErrCorrupt) {
			t.Errorf("read of quarantined %s = %v, want ErrCorrupt", victim, err)
		}
		return p.Munmap()
	})
	if err != nil {
		t.Fatal(err)
	}
	_, err = mpi.Run(n.Machine, 1, func(c *mpi.Comm) error {
		p, err := core.Mmap(c, n, "/quar.pool")
		if err != nil {
			return err
		}
		if q := p.Quarantined(); len(q) != 1 {
			t.Errorf("Quarantined() after reopen = %v, want 1 entry", q)
		}
		if _, err := loadUniformF64(p, victim, 64); !errors.Is(err, core.ErrCorrupt) {
			t.Errorf("read of quarantined %s after reopen = %v, want ErrCorrupt", victim, err)
		}
		// The other pools' data is untouched.
		for i := 0; i < 8; i++ {
			id := fmt.Sprintf("q%d", i)
			if id == victim {
				continue
			}
			if v, err := loadUniformF64(p, id, 64); err != nil || v != float64(i) {
				return fmt.Errorf("%s after reopen = %g, %v", id, v, err)
			}
		}
		if _, err := p.Delete(victim); err != nil {
			return err
		}
		if q := p.Quarantined(); len(q) != 0 {
			t.Errorf("Quarantined() after Delete = %v, want empty", q)
		}
		return p.Munmap()
	})
	if err != nil {
		t.Fatal(err)
	}
}

// exploreMultiPoolScript is the striped-workload exploration: parallel
// overwrites shard over every member pool (one transaction and one barrier
// per pool, in ascending pool order), serial datums republish in their home
// pools, and recovery after a crash anywhere must show a prefix-atomic
// namespace across all members.
func exploreMultiPoolScript() core.Script {
	const elems = 32768 // 256 KB: exactly the parallel-path threshold
	return core.Script{
		Name:    "multipool",
		DevSize: 32 << 20,
		Pools:   4,
		Options: &core.Options{Parallelism: 4, Codec: "raw"},
		Setup: func(p *core.PMEM) error {
			if err := p.Alloc("A", serial.Float64, []uint64{elems}); err != nil {
				return err
			}
			if err := p.StoreBlock("A", []uint64{0}, []uint64{elems},
				uniformF64(elems, 1)); err != nil {
				return err
			}
			return p.StoreDatum("D", &serial.Datum{Type: serial.Bytes, Payload: []byte("old")})
		},
		Run: func(p *core.PMEM) error {
			if err := p.StoreBlock("A", []uint64{0}, []uint64{elems},
				uniformF64(elems, 2)); err != nil {
				return err
			}
			return p.StoreDatum("D", &serial.Datum{Type: serial.Bytes, Payload: []byte("new")})
		},
		Verify: func(p *core.PMEM) error {
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
			if s := string(d.Payload); s != "old" && s != "new" {
				return fmt.Errorf("D = %q, want old or new", s)
			}
			// Prefix atomicity across pools: D republishes after A's striped
			// overwrite committed, so D=new implies A=2.
			if string(d.Payload) == "new" && a != 2 {
				return fmt.Errorf("D republished but A = all %g", a)
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
			if d, err := p.LoadDatum("D"); err != nil || string(d.Payload) != "new" {
				return fmt.Errorf("D after complete run: %v, %v", d, err)
			}
			// Anti-vacuity: the overwrite really striped over all 4 pools.
			blocks, err := p.BlockStatsOf("A")
			if err != nil {
				return err
			}
			pools := map[int]bool{}
			for _, b := range blocks {
				pools[b.Pool] = true
			}
			if len(pools) != 4 {
				return fmt.Errorf("A's blocks touch %d pools, want 4", len(pools))
			}
			if parallelOps(p, "store_") == 0 {
				return fmt.Errorf("store took the serial path despite Parallelism=4")
			}
			return nil
		},
	}
}

// TestExploreMultiPoolStriped crash-tests every persist of the striped
// workload under loseall/random/torn adversaries: zero unexplored points,
// zero recovery failures, zero silent escapes.
func TestExploreMultiPoolStriped(t *testing.T) {
	runExplore(t, exploreMultiPoolScript(), core.ExploreOptions{Tear: true})
}

// setMaps maps the namespace's pool file on every device of n, raw, the way
// the pmemfsck CLI would.
func setMaps(t *testing.T, n *node.Node, path string) []*pmem.Mapping {
	t.Helper()
	maps, err := core.RawMaps(n, path)
	if err != nil {
		t.Fatal(err)
	}
	return maps
}

// TestExploreMultiPoolSetCommit is the directed exploration of namespace
// creation, for the single pool and a 4-member set alike. Creation runs
// inside Mmap (not inside a Script's Run), so this test traces the whole open
// path and then replays it once per persist ordinal, killing exactly that
// persist, power-cycling every device, and requiring the reopened namespace to
// be empty, fully usable across all member pools, and structurally clean and
// published under fsck.CheckSet. Because every ordinal in the prepare/publish
// window is enumerated, nothing is unexplored by construction; the round-trip
// readback makes a silent escape loud.
func TestExploreMultiPoolSetCommit(t *testing.T) {
	for _, pools := range []int{1, 4} {
		t.Run(fmt.Sprintf("pools=%d", pools), func(t *testing.T) { exploreSetCommit(t, pools) })
	}
}

func exploreSetCommit(t *testing.T, pools int) {
	const (
		devSize = 16 << 20
		path    = "/set.pool"
	)
	openClose := func(n *node.Node) error {
		_, err := mpi.Run(n.Machine, 1, func(c *mpi.Comm) error {
			p, err := core.Mmap(c, n, path)
			if err != nil {
				return err
			}
			return p.Munmap()
		})
		return err
	}

	// Trace pass: record every persist of create-open-close.
	tn := multiNode(pools, devSize, 1)
	tn.Device.StartTrace()
	if err := openClose(tn); err != nil {
		t.Fatal(err)
	}
	events := tn.Device.StopTrace()

	// Anti-vacuity: the trace must show the protocol — one member descriptor
	// persist per pool but member 0, then exactly one publish persist, the
	// last persist of the whole creation.
	var ops []int64
	var memberHits, publishHits int
	for _, ev := range events {
		ops = append(ops, ev.Op)
		switch pmem.PointName(ev.Point) {
		case "pmdk.set.member":
			memberHits++
		case "pmdk.set.publish":
			publishHits++
		}
	}
	if memberHits != pools-1 || publishHits != 1 {
		t.Fatalf("trace: %d member persists and %d publish persists, want %d and 1",
			memberHits, publishHits, pools-1)
	}
	if last := events[len(events)-1]; pmem.PointName(last.Point) != "pmdk.set.publish" {
		t.Fatalf("creation's last event is %s, want the publish persist", pmem.PointName(last.Point))
	}
	t.Logf("open path: %d persists, publish at %d", len(ops), ops[len(ops)-1])

	// Replay: one simulation per (ordinal, adversary-variant). tearSeed != 0
	// additionally tears the killed persist itself.
	variants := []struct {
		name     string
		mode     pmem.CrashMode
		tearSeed uint64
	}{
		{"loseall", pmem.CrashLoseAll, 0},
		{"keepall", pmem.CrashKeepAll, 0},
		{"torn", pmem.CrashLoseAll, 0x9e3779b97f4a7c15},
		{"random", pmem.CrashRandom, 0},
	}
	for _, k := range ops {
		for _, v := range variants {
			n := multiNode(pools, devSize, 1)
			n.Device.ArmCrashAtOp(k, v.tearSeed)
			if err := openClose(n); !errors.Is(err, pmem.ErrFailed) {
				t.Fatalf("op %d/%s: open with armed crash = %v, want injected device failure", k, v.name, err)
			}
			n.CrashAll(v.mode, rand.New(rand.NewSource(k+1)))

			// Recovery: the reopened namespace must be empty (it either never
			// published, or published with nothing stored) and fully usable.
			_, err := mpi.Run(n.Machine, 1, func(c *mpi.Comm) error {
				p, merr := core.Mmap(c, n, path)
				if merr != nil {
					return fmt.Errorf("reopen after crash: %w", merr)
				}
				keys, kerr := p.Keys()
				if kerr != nil {
					return kerr
				}
				if len(keys) != 0 {
					return fmt.Errorf("recovered namespace leaks keys %v", keys)
				}
				for i := 0; i < 8; i++ {
					id := fmt.Sprintf("post%d", i)
					val := []byte(strings.Repeat(id, 7))
					if serr := p.StoreDatum(id, &serial.Datum{Type: serial.Bytes, Payload: val}); serr != nil {
						return fmt.Errorf("store %s on recovered set: %w", id, serr)
					}
					d, lerr := p.LoadDatum(id)
					if lerr != nil {
						return fmt.Errorf("load %s on recovered set: %w", id, lerr)
					}
					if !bytes.Equal(d.Payload, val) {
						return fmt.Errorf("%s round-trip mismatch on recovered set", id)
					}
				}
				return p.Munmap()
			})
			if err != nil {
				t.Fatalf("op %d/%s: %v", k, v.name, err)
			}

			// Structural check over every member mapping.
			rep, cerr := fsck.CheckSet(new(sim.Clock), setMaps(t, n, path))
			if cerr != nil {
				t.Fatalf("op %d/%s: fsck set: %v", k, v.name, cerr)
			}
			if !rep.OK() || !rep.Published {
				t.Fatalf("op %d/%s: fsck set after recovery: published=%v %s",
					k, v.name, rep.Published, rep.Summary())
			}
		}
	}
	t.Logf("namespace commit: %d crash simulations over %d persist ordinals, all recovered",
		len(ops)*len(variants), len(ops))
}

// TestNamespaceDamageRefused flips one bit in each record the open path
// gates on, in a populated namespace: Mmap must refuse with the pmdk error
// class (never re-format: every member's bytes are as the flip left them),
// fsck.CheckSet must report a violation rather than "unpublished, OK", and
// with the flip undone every key and value is still there. A failed checksum
// also matches the public ErrCorrupt; a foreign version matches no public
// sentinel and its text names both versions. The last rows are old-format
// pools — a format-3 one (valid header, no descriptor slot) and a published
// format-4 one (whole values behind value refs only) — refused the same way.
func TestNamespaceDamageRefused(t *testing.T) {
	// Pool header offsets (internal/pmdk/pool.go, poolset.go).
	const (
		hdrVersion  = 8
		hdrRootOff  = 24
		hdrChecksum = 88
		hdrSetDesc  = 192
		path        = "/damage.pool"
	)
	for _, pools := range []int{1, 4} {
		t.Run(fmt.Sprintf("pools=%d", pools), func(t *testing.T) {
			n := multiNode(pools, 8<<20, 1)
			value := func(i int) []byte { return []byte(strings.Repeat(fmt.Sprintf("v%d", i), 9)) }
			open := func(fn func(p *core.PMEM) error) error {
				_, err := mpi.Run(n.Machine, 1, func(c *mpi.Comm) error {
					p, err := core.Mmap(c, n, path)
					if err != nil {
						return err
					}
					if err := fn(p); err != nil {
						return err
					}
					return p.Munmap()
				})
				return err
			}
			err := open(func(p *core.PMEM) error {
				for i := 0; i < 8; i++ {
					if err := p.StoreDatum(fmt.Sprintf("k%d", i), &serial.Datum{Type: serial.Bytes, Payload: value(i)}); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			intact := func() error {
				return open(func(p *core.PMEM) error {
					keys, err := p.Keys()
					if err != nil || len(keys) != 8 {
						return fmt.Errorf("keys = %v, %v; want the 8 stored", keys, err)
					}
					for i := 0; i < 8; i++ {
						d, err := p.LoadDatum(fmt.Sprintf("k%d", i))
						if err != nil || !bytes.Equal(d.Payload, value(i)) {
							return fmt.Errorf("k%d = %v, %v", i, d, err)
						}
					}
					return nil
				})
			}
			maps := setMaps(t, n, path)
			header := func(member int) []byte {
				h, err := maps[member].Slice(0, 256)
				if err != nil {
					t.Fatal(err)
				}
				return h
			}

			rows := []struct {
				name      string
				member    int
				damage    func(h []byte)
				want      error
				invariant string
			}{
				{"publish record", 0, func(h []byte) { h[hdrSetDesc+9] ^= 0x10 }, pmdk.ErrCorrupt, "set.publish"},
				{"pool 0 header", 0, func(h []byte) { h[hdrRootOff] ^= 0x08 }, pmdk.ErrCorrupt, "pool.open"},
				{"pool 0 version", 0, func(h []byte) { h[hdrVersion] ^= 0x02 }, pmdk.ErrBadPool, "pool.open"},
				{"member descriptor", pools - 1, func(h []byte) { h[hdrSetDesc+16] ^= 0x01 }, pmdk.ErrCorrupt, "set.member"},
				{"member of another set", pools - 1, func(h []byte) {
					d := h[hdrSetDesc:]
					d[8] ^= 0x01 // the set id, behind a recomputed descriptor checksum
					binary.LittleEndian.PutUint64(d[24:], uint64(checksum.Sum(d[:24])))
				}, pmdk.ErrCorrupt, "set.member"},
				{"format 3", 0, func(h []byte) {
					h[hdrVersion] = 3
					binary.LittleEndian.PutUint64(h[hdrChecksum:], uint64(checksum.Sum(h[:hdrChecksum])))
					clear(h[hdrSetDesc:])
				}, pmdk.ErrBadPool, "set.publish"},
				{"format 6", 0, func(h []byte) {
					h[hdrVersion] = 6
					binary.LittleEndian.PutUint64(h[hdrChecksum:], uint64(checksum.Sum(h[:hdrChecksum])))
				}, pmdk.ErrBadPool, "pool.open"},
			}
			for _, r := range rows {
				if r.invariant == "set.member" && r.member == 0 {
					continue // a 1-member set has no descriptor but the publish record
				}
				h := header(r.member)
				saved := bytes.Clone(h)
				r.damage(h)
				var before [][]byte
				for _, m := range maps {
					b, _ := m.Slice(0, m.Len())
					before = append(before, bytes.Clone(b))
				}
				err := open(func(*core.PMEM) error { return nil })
				if !errors.Is(err, r.want) || errors.Is(err, core.ErrCorrupt) != (r.want == pmdk.ErrCorrupt) {
					t.Fatalf("%s: Mmap = %v, want %v (and the public ErrCorrupt exactly for a failed checksum)", r.name, err, r.want)
				}
				if r.want == pmdk.ErrBadPool && !strings.Contains(err.Error(), "version 8") {
					t.Fatalf("%s: Mmap = %v, want the text to name the version found and version 8", r.name, err)
				}
				for i, m := range maps {
					if b, _ := m.Slice(0, m.Len()); !bytes.Equal(b, before[i]) {
						t.Fatalf("%s: the refused Mmap wrote to member %d", r.name, i)
					}
				}
				rep, err := fsck.CheckSet(new(sim.Clock), maps)
				if err != nil {
					t.Fatalf("%s: fsck: %v", r.name, err)
				}
				if v := rep.First(); v == nil || v.Invariant != r.invariant {
					t.Fatalf("%s: fsck reports %q (%v), want a %s violation", r.name, rep.Summary(), v, r.invariant)
				}
				copy(h, saved)
				if err := intact(); err != nil {
					t.Fatalf("%s: after undoing the damage: %v", r.name, err)
				}
			}
		})
	}
}

// TestConcurrentMultiPoolStress is the -race gate for the sharded namespace:
// several ranks hammer one 4-pool handle with stores, model-checked loads,
// deletes, overwrites, and scrub passes. Per-variable model mutexes held
// across the PMEM op and the model update make the model a linearization
// witness; payloads straddle the parallel threshold so striped stores and
// gathers run concurrently on every member pool.
func TestConcurrentMultiPoolStress(t *testing.T) {
	const (
		ranks   = 6
		nvars   = 5
		opsEach = 30
	)
	n := multiNode(4, 64<<20, ranks)
	opts := &core.Options{Codec: "raw", Parallelism: 4, ReadParallelism: 4}

	var (
		modelMu  [nvars]sync.Mutex
		modelVal [nvars][]byte // nil = absent
	)
	varName := func(v int) string { return fmt.Sprintf("stress/v%d", v) }

	_, err := mpi.Run(n.Machine, ranks, func(c *mpi.Comm) error {
		p, err := core.Mmap(c, n, "/stress.pool", core.OptionsArg(opts))
		if err != nil {
			return err
		}
		rng := rand.New(rand.NewSource(int64(c.Rank()*104729 + 5)))
		// Each rank owns one striped array it overwrites, so block-list
		// republish + cross-pool frees race the datum traffic.
		const arrElems = 1 << 15 // 256 KB of f64: striped over all pools
		arr := fmt.Sprintf("stress/arr%d", c.Rank())
		gen := 1.0
		if err := p.Alloc(arr, serial.Float64, []uint64{arrElems}); err != nil {
			return err
		}
		if err := p.StoreBlock(arr, []uint64{0}, []uint64{arrElems}, uniformF64(arrElems, gen)); err != nil {
			return err
		}
		payload := func() []byte {
			size := 64 + rng.Intn(4096)
			if rng.Intn(8) == 0 {
				size = (256 << 10) + rng.Intn(64<<10)
			}
			b := make([]byte, size)
			rng.Read(b)
			return b
		}
		for op := 0; op < opsEach; op++ {
			v := rng.Intn(nvars)
			id := varName(v)
			switch rng.Intn(8) {
			case 0, 1, 2: // store
				modelMu[v].Lock()
				val := payload()
				err := p.StoreDatum(id, &serial.Datum{Type: serial.Bytes, Payload: val})
				if err == nil {
					modelVal[v] = val
				}
				modelMu[v].Unlock()
				if err != nil {
					return fmt.Errorf("rank %d store %s: %w", c.Rank(), id, err)
				}
			case 3, 4: // load and compare against the model
				modelMu[v].Lock()
				d, err := p.LoadDatum(id)
				want := modelVal[v]
				modelMu[v].Unlock()
				if want == nil {
					if err == nil {
						return fmt.Errorf("rank %d: load %s returned data for absent variable", c.Rank(), id)
					}
				} else {
					if err != nil {
						return fmt.Errorf("rank %d load %s: %w", c.Rank(), id, err)
					}
					if !bytes.Equal(d.Payload, want) {
						return fmt.Errorf("rank %d: %s read %d bytes != model %d bytes",
							c.Rank(), id, len(d.Payload), len(want))
					}
				}
			case 5: // delete
				modelMu[v].Lock()
				existed, err := p.Delete(id)
				if err == nil && existed != (modelVal[v] != nil) {
					err = fmt.Errorf("delete existed=%v but model says %v", existed, modelVal[v] != nil)
				}
				if err == nil {
					modelVal[v] = nil
				}
				modelMu[v].Unlock()
				if err != nil {
					return fmt.Errorf("rank %d delete %s: %w", c.Rank(), id, err)
				}
			case 6: // overwrite the rank's own striped array
				gen++
				if err := p.StoreBlock(arr, []uint64{0}, []uint64{arrElems},
					uniformF64(arrElems, gen)); err != nil {
					return fmt.Errorf("rank %d store %s: %w", c.Rank(), arr, err)
				}
				if v, err := loadUniformF64(p, arr, arrElems); err != nil || v != gen {
					return fmt.Errorf("rank %d: %s = %g, %v, want %g", c.Rank(), arr, v, err, gen)
				}
			default: // scrub: nothing is corrupt, so nothing may be quarantined
				rep, err := p.Scrub(context.Background())
				if err != nil {
					return fmt.Errorf("rank %d scrub: %w", c.Rank(), err)
				}
				if rep.Quarantined != 0 {
					return fmt.Errorf("rank %d: scrub quarantined %d healthy blocks", c.Rank(), rep.Quarantined)
				}
			}
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		if c.Rank() == 0 {
			for v := 0; v < nvars; v++ {
				d, err := p.LoadDatum(varName(v))
				if modelVal[v] == nil {
					if err == nil {
						return fmt.Errorf("final: %s present but model says absent", varName(v))
					}
					continue
				}
				if err != nil {
					return fmt.Errorf("final: load %s: %w", varName(v), err)
				}
				if !bytes.Equal(d.Payload, modelVal[v]) {
					return fmt.Errorf("final: %s mismatches model", varName(v))
				}
			}
			if got := p.Pools(); got != 4 {
				return fmt.Errorf("Pools() = %d, want 4", got)
			}
		}
		return p.Munmap()
	})
	if err != nil {
		t.Fatal(err)
	}
}
