// Command pmemfsck exercises pMEMCPY's crash-consistency machinery: it runs
// a transactional key-value workload against the emulated device, injects a
// power failure after every possible persist point, recovers the pool, and
// checks the recovered state against the set of states the undo-log protocol
// permits (atomicity: committed data intact, uncommitted data absent or
// fully rolled back). Every recovered pool additionally passes the
// structural checker (internal/fsck) — allocator, lane, and hashtable
// invariants.
//
// With -fsck it instead acts as a plain filesystem-checker: build a namespace
// of -pools member pools the way the library does, verify its structural
// invariants, and report the first violated one (nonzero exit) if it is
// corrupt. -corrupt deliberately tears a metadata record first, to
// demonstrate — and regression-test — detection.
//
// With -deep it runs the content-level companion of the structural check: it
// builds a full pMEMCPY store and recomputes every published block's CRC32C
// against the medium (core.DeepCheck). A clean store exits 0 with a stable
// summary line; detected corruption exits 2 and lists every damaged block's
// id, block index, pool offset, and length. -corrupt deliberately damages
// stored bytes first (an array block, a whole value that lives inline in its
// metadata record, and one in a block of its own) without touching the
// recorded checksums — silent media corruption — to demonstrate and
// regression-test detection.
//
// Examples:
//
//	pmemfsck                 # sweep all crash points, all adversary modes
//	pmemfsck -mode random -seed 7
//	pmemfsck -v              # report every crash point's outcome
//	pmemfsck -fsck           # structural check of a clean pool
//	pmemfsck -fsck -corrupt  # ...of a pool with a torn metadata record
//	pmemfsck -fsck -pools 4  # ...of a 4-member pool set
//	pmemfsck -fsck -pools 4 -corrupt  # ...with a record torn on one member
//	pmemfsck -deep           # checksum every stored block of a full store
//	pmemfsck -deep -corrupt  # ...after silently damaging stored bytes
package main

import (
	"encoding/binary"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"

	"pmemcpy/internal/fsck"
	"pmemcpy/internal/pmdk"
	"pmemcpy/internal/pmem"
	"pmemcpy/internal/sim"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, w io.Writer) int {
	fs := flag.NewFlagSet("pmemfsck", flag.ContinueOnError)
	var (
		mode    = fs.String("mode", "all", `crash adversary: "loseall", "keepall", "random", or "all"`)
		seed    = fs.Int64("seed", 1, "seed for the random adversary")
		verbose = fs.Bool("v", false, "report every crash point")
		check   = fs.Bool("fsck", false, "structural check mode: build a pool and verify its invariants")
		deep    = fs.Bool("deep", false, "content check mode: build a store and verify every block checksum")
		corrupt = fs.Bool("corrupt", false, "with -fsck/-deep: damage the pool before checking")
		pools   = fs.Int("pools", 1, "with -fsck: check a namespace of this many member pools")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *deep {
		return runDeep(w, *corrupt)
	}
	if *check {
		return runFsck(w, *pools, *corrupt)
	}

	modes := map[string][]pmem.CrashMode{
		"loseall": {pmem.CrashLoseAll},
		"keepall": {pmem.CrashKeepAll},
		"random":  {pmem.CrashRandom},
		"all":     {pmem.CrashLoseAll, pmem.CrashKeepAll, pmem.CrashRandom},
	}[*mode]
	if modes == nil {
		fmt.Fprintf(w, "pmemfsck: unknown mode %q\n", *mode)
		return 2
	}

	total, failures := 0, 0
	for _, m := range modes {
		points, bad := sweep(w, m, *seed, *verbose)
		fmt.Fprintf(w, "mode %-8v: %3d crash points checked, %d violations\n", m, points, bad)
		total += points
		failures += bad
	}
	if failures > 0 {
		fmt.Fprintf(w, "FAIL: %d of %d crash points violated consistency\n", failures, total)
		return 1
	}
	fmt.Fprintf(w, "OK: all %d crash points recovered to consistent states\n", total)
	return 0
}

// runFsck builds a published npools-member namespace through the pmdk create
// core.Mmap uses, stores a few keys in it (var-i on member i mod npools),
// optionally tears one metadata record, and runs the set checker, reporting
// the first violated invariant.
func runFsck(w io.Writer, npools int, corrupt bool) int {
	fail := func(err error) int {
		fmt.Fprintf(w, "pmemfsck: %v\n", err)
		return 2
	}
	if npools < 1 {
		return fail(fmt.Errorf("-pools %d: need at least one", npools))
	}
	machine := sim.NewMachine(sim.DefaultConfig())
	machine.SetConcurrency(1)
	clk := new(sim.Clock)
	maps := make([]*pmem.Mapping, npools)
	for i := range maps {
		var err error
		if maps[i], err = pmem.NewMapping(pmem.New(machine, 4<<20), 0, 4<<20, false); err != nil {
			return fail(fmt.Errorf("member %d: %w", i, err))
		}
	}
	pools, err := pmdk.CreateSet(clk, 0x70736574, maps, nil)
	if err != nil {
		return fail(fmt.Errorf("creating set: %w", err))
	}
	hts := make([]*pmdk.Hashtable, npools)
	for i, pool := range pools {
		if hts[i], err = pool.RootHashtable(clk); err != nil {
			return fail(err)
		}
	}
	for i := 0; i < 8; i++ {
		if err := hts[i%npools].Put(clk, []byte(fmt.Sprintf("var-%d", i)), []byte("payload")); err != nil {
			return fail(err)
		}
	}
	if corrupt {
		// Tear one key's metadata: scribble the state word of its value
		// block's header, as a torn cacheline across the header boundary
		// would. Under a published set that is a genuine violation.
		victim := 3 % npools
		vid, _, ok, err := hts[victim].GetRef(clk, []byte("var-3"))
		if err != nil || !ok {
			return fail(fmt.Errorf("locating record to corrupt: %v", err))
		}
		s, err := maps[victim].Slice(int64(vid)-8, 8)
		if err != nil {
			return fail(err)
		}
		binary.LittleEndian.PutUint64(s, 0x7042)
		fmt.Fprintf(w, "tore metadata record of \"var-3\" on set member %d\n", victim)
	}
	rep, err := fsck.CheckSet(clk, maps)
	if err != nil {
		return fail(err)
	}
	fmt.Fprintf(w, "%s\n", rep.Summary())
	if !rep.OK() {
		fmt.Fprintf(w, "first violated invariant: %s\n", rep.First())
		return 1
	}
	return 0
}

// sweep runs the update+insert workload, crashing after the k-th persist for
// every k until the workload completes without injection firing.
func sweep(w io.Writer, mode pmem.CrashMode, seed int64, verbose bool) (points, violations int) {
	rng := rand.New(rand.NewSource(seed))
	for k := int64(0); ; k++ {
		points++
		completed, err := crashPoint(w, mode, k, rng, verbose)
		if err != nil {
			violations++
			fmt.Fprintf(w, "  k=%d: VIOLATION: %v\n", k, err)
		}
		if completed {
			return points, violations
		}
		if k > 5000 {
			fmt.Fprintln(w, "  sweep did not terminate (workload never completes)")
			violations++
			return points, violations
		}
	}
}

// crashPoint builds a fresh pool with two committed keys, then (under
// injection) updates one and inserts another, crashes, recovers, and checks
// the permitted states plus the structural invariants.
func crashPoint(w io.Writer, mode pmem.CrashMode, k int64, rng *rand.Rand, verbose bool) (completed bool, err error) {
	machine := sim.NewMachine(sim.DefaultConfig())
	machine.SetConcurrency(1)
	dev := pmem.New(machine, 16<<20, pmem.WithCrashTracking())
	mp, err := pmem.NewMapping(dev, 0, 16<<20, false)
	if err != nil {
		return false, err
	}
	clk := new(sim.Clock)
	pool, err := pmdk.Create(clk, mp, nil)
	if err != nil {
		return false, err
	}
	htID, err := pmdk.FormatPool(clk, pool, 16)
	if err != nil {
		return false, err
	}
	ht, err := pmdk.OpenHashtable(clk, pool, htID)
	if err != nil {
		return false, err
	}
	if err := ht.Put(clk, []byte("stable"), []byte("old-stable")); err != nil {
		return false, err
	}
	if err := ht.Put(clk, []byte("victim"), []byte("old-victim")); err != nil {
		return false, err
	}

	dev.ArmCrashAtOp(k, 0)
	err1 := ht.Put(clk, []byte("victim"), []byte("new-victim"))
	var err2 error
	if err1 == nil {
		err2 = ht.Put(clk, []byte("fresh"), []byte("new-fresh"))
	}
	completed = err1 == nil && err2 == nil
	for _, e := range []error{err1, err2} {
		if e != nil && !errors.Is(e, pmem.ErrFailed) {
			return completed, fmt.Errorf("unexpected workload error: %w", e)
		}
	}

	dev.Crash(mode, rng)

	// Structural pass first — the same checker the crash-point explorer runs.
	rep, err := fsck.Check(clk, mp)
	if err != nil {
		return completed, fmt.Errorf("fsck: %w", err)
	}
	if !rep.OK() {
		return completed, fmt.Errorf("fsck: %s", rep.Summary())
	}

	pool2, err := pmdk.Open(clk, mp)
	if err != nil {
		return completed, fmt.Errorf("recovery failed: %w", err)
	}
	ht2, err := pmdk.OpenHashtable(clk, pool2, htID)
	if err != nil {
		return completed, fmt.Errorf("reopening table failed: %w", err)
	}

	check := func(key string, allowed ...string) error {
		v, ok, err := ht2.Get(clk, []byte(key))
		if err != nil {
			return fmt.Errorf("Get(%s): %w", key, err)
		}
		for _, a := range allowed {
			if a == "" && !ok {
				return nil
			}
			if ok && string(v) == a {
				return nil
			}
		}
		return fmt.Errorf("Get(%s) = (%q, %v); allowed %q", key, v, ok, allowed)
	}
	if err := check("stable", "old-stable"); err != nil {
		return completed, err
	}
	if err := check("victim", "old-victim", "new-victim"); err != nil {
		return completed, err
	}
	if err := check("fresh", "", "new-fresh"); err != nil {
		return completed, err
	}
	if completed {
		if err := check("victim", "new-victim"); err != nil {
			return completed, fmt.Errorf("committed update lost: %w", err)
		}
		if err := check("fresh", "new-fresh"); err != nil {
			return completed, fmt.Errorf("committed insert lost: %w", err)
		}
	}
	if verbose {
		st := pool2.Stats()
		fmt.Fprintf(w, "  k=%-4d recovered=%d completed=%v\n", k, st.Recovered, completed)
	}
	return completed, nil
}
