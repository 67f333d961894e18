// Command pmemfsck checks pMEMCPY's crash consistency and its pools.
//
// By default it runs the library's crash-point explorer (core.Explore) on two
// store workloads — a serial overwrite, store and delete, and a sharded
// overwrite over 4 copy workers: it records each workload's persist trace,
// then crashes a fresh run at every persist point on it under every cache-loss
// adversary (lose-all, keep-all, random) and with a torn in-flight store.
// Every recovered pool must pass the structural checker (internal/fsck), the
// core metadata invariants, a CRC deep check, and the workload's own check
// that each transaction is all-or-nothing (every array holds uniformly old or
// uniformly new data). It prints each workload's coverage map and exits 1 on
// any failure or any reached persist point left unexplored.
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
//	pmemfsck                 # crash-test every persist point, all adversaries
//	pmemfsck -fsck           # structural check of a clean pool
//	pmemfsck -fsck -corrupt  # ...of a pool with a torn metadata record
//	pmemfsck -fsck -pools 4  # ...of a 4-member pool set
//	pmemfsck -fsck -pools 4 -corrupt  # ...with a record torn on one member
//	pmemfsck -deep           # checksum every stored block of a full store
//	pmemfsck -deep -corrupt  # ...after silently damaging stored bytes
package main

import (
	"encoding/binary"
	"flag"
	"fmt"
	"io"
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

	return explore(w, crashScripts())
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
