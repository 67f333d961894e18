// Command pmemcli demonstrates and inspects a pMEMCPY store. Because the
// reproduction's PMEM device is an in-process emulation, pmemcli populates a
// store with a representative dataset and then walks it the way a pool
// inspector would: listing keys, dimensions, element types, block layout and
// allocator statistics, optionally hex-dumping a value.
//
// Examples:
//
//	pmemcli                      # hashtable layout, list keys + stats
//	pmemcli -layout hierarchy    # show the directory tree layout
//	pmemcli -dump rect0          # hexdump the start of a variable
//	pmemcli -codec raw           # store with serialization disabled
//	pmemcli -async -codec raw    # populate through the async group-commit queue
//	pmemcli -pools 4             # shard the namespace over 4 member pools
//	pmemcli stats                # observability metrics as Prometheus text
//	pmemcli stats -trace t.json  # additionally dump the operation trace
//	pmemcli scrub                # checksum-scrub every stored block
//	pmemcli scrub -corrupt       # ...after silently damaging one block
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"pmemcpy"
	"pmemcpy/internal/obs"
	"pmemcpy/internal/sim"
	"pmemcpy/internal/workload"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "stats" {
		runStats(os.Args[2:])
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "scrub" {
		runScrub(os.Args[2:])
		return
	}
	var (
		layoutName = flag.String("layout", "hashtable", `data layout: "hashtable" or "hierarchy"`)
		codec      = flag.String("codec", "", "serializer: bp4 (default), flat, cbin, raw")
		dump       = flag.String("dump", "", "hex-dump the first bytes of this id's data")
		ranks      = flag.Int("ranks", 4, "parallel ranks populating the store")
		parallel   = flag.Int("parallel", 0, "per-rank copy workers for large stores (<=1: serial)")
		readpar    = flag.Int("readparallel", 0, "per-rank gather workers for large loads (0: follow -parallel, 1: serial)")
		async      = flag.Bool("async", false, "populate through the asynchronous submission queue (group commit)")
		window     = flag.Int("window", 8, "async coalesce window (submissions per batch), with -async")
		pools      = flag.Int("pools", 1, "shard the namespace over this many member pools (one PMEM device each)")
	)
	flag.Parse()

	layout := pmemcpy.LayoutHashtable
	if *layoutName == "hierarchy" {
		layout = pmemcpy.LayoutHierarchy
	} else if *layoutName != "hashtable" {
		fatal(fmt.Errorf("unknown layout %q", *layoutName))
	}

	n := pmemcpy.NewNode(pmemcpy.DefaultConfig(), 256<<20, pmemcpy.WithPMEMPools(*pools))
	opts := []pmemcpy.MmapOption{
		pmemcpy.WithLayout(layout),
		pmemcpy.WithCodec(*codec),
		pmemcpy.WithParallelism(*parallel),
		pmemcpy.WithReadParallelism(*readpar),
	}
	if *async {
		opts = append(opts, pmemcpy.WithAsync(), pmemcpy.WithCoalesceWindow(*window))
	}

	// Populate: a small 3-D decomposition plus scalars, in parallel. With
	// -async the rectangle writes queue through the submission pipeline and
	// Munmap drains them; the counters printed afterwards show the batching
	// and which form each metadata publish took.
	var snap pmemcpy.MetricsSnapshot
	_, err := pmemcpy.Run(n, *ranks, func(c *pmemcpy.Comm) error {
		p, err := pmemcpy.Mmap(c, n, "/demo.pool", opts...)
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			if err := pmemcpy.Store(p, "sim/timestep", int64(42)); err != nil {
				return err
			}
			if err := pmemcpy.StoreString(p, "sim/label", "demo dataset"); err != nil {
				return err
			}
		}
		for v := 0; v < workload.DemoVars; v++ {
			name, data, offs, counts := workload.DemoBlock(v, c.Rank())
			if err := pmemcpy.Alloc[float64](p, name, uint64(*ranks)*workload.DemoElems); err != nil {
				return err
			}
			if *async {
				pmemcpy.StoreSubAsync(p, name, data, offs, counts)
			} else if err := pmemcpy.StoreSub(p, name, data, offs, counts); err != nil {
				return err
			}
		}
		if *async {
			if err := p.Flush(context.Background()); err != nil {
				return err
			}
		}
		if c.Rank() == 0 {
			snap = p.Metrics()
		}
		return p.Munmap()
	})
	if err != nil {
		fatal(err)
	}
	if *async {
		fmt.Printf("ASYNC PIPELINE (window=%d): submitted=%d batches=%d publishes=%d coalesced=%d backpressure=%d\n\n",
			*window,
			snap.Get("pmemcpy_async_submitted_total"),
			snap.Get("pmemcpy_async_batches_total"),
			snap.Get("pmemcpy_async_publishes_total"),
			snap.Get("pmemcpy_async_coalesced_total"),
			snap.Get("pmemcpy_async_backpressure_total"))
	}

	if layout == pmemcpy.LayoutHashtable {
		fmt.Printf("PUBLISH FORMS (rank 0's view at its Munmap): values-inline=%d ht-inserted=%d ht-in-place=%d ht-relinked=%d\n\n",
			snap.Get("pmemcpy_values_inline_total"), snap.Get("pmemcpy_ht_updates_inserted_total"),
			snap.Get("pmemcpy_ht_updates_in_place_total"), snap.Get("pmemcpy_ht_updates_relinked_total"))
	}

	// Inspect, single rank.
	_, err = pmemcpy.Run(n, 1, func(c *pmemcpy.Comm) error {
		p, err := pmemcpy.Mmap(c, n, "/demo.pool", opts...)
		if err != nil {
			return err
		}
		keys, err := p.Keys()
		if err != nil {
			return err
		}
		sort.Strings(keys)
		fmt.Printf("STORE /demo.pool  layout=%s codec=%s  (%d keys)\n\n", *layoutName, p.CodecName(), len(keys))
		fmt.Printf("%-24s %-10s %s\n", "KEY", "KIND", "DETAIL")
		fmt.Println(strings.Repeat("-", 60))
		for _, k := range keys {
			if strings.HasSuffix(k, pmemcpy.DimsSuffix) {
				continue // shown inline with the owning variable
			}
			dims, derr := pmemcpy.LoadDims(p, k)
			if derr == nil {
				detail := fmt.Sprintf("dims=%v (+%s companion)", dims, pmemcpy.DimsSuffix)
				if *pools > 1 {
					spread := map[int]bool{}
					if blocks, berr := p.BlockStatsOf(k); berr == nil {
						for _, b := range blocks {
							spread[b.Pool] = true
						}
					}
					detail += fmt.Sprintf(" home=pool%d blocks-on=%d/%d pools",
						p.HomePool(k), len(spread), p.Pools())
				}
				if layout == pmemcpy.LayoutHashtable {
					// First MinMax per id builds the DRAM block index (a
					// cache miss); repeats hit it (the counters below).
					if mn, mx, merr := p.MinMax(k); merr == nil {
						detail += fmt.Sprintf(" range=[%g, %g]", mn, mx)
					}
				}
				fmt.Printf("%-24s %-10s %s\n", k, "array", detail)
				continue
			}
			if s, serr := pmemcpy.LoadString(p, k); serr == nil {
				fmt.Printf("%-24s %-10s %q\n", k, "string", s)
				continue
			}
			fmt.Printf("%-24s %-10s\n", k, "scalar")
		}

		if layout == pmemcpy.LayoutHashtable {
			// Repeat the range queries: every id's index is now resident, so
			// these hit it (BLOCK-INDEX CACHE below) and read no record, only
			// each block's statistics header.
			for _, k := range keys {
				if strings.HasSuffix(k, pmemcpy.DimsSuffix) {
					continue
				}
				if _, derr := pmemcpy.LoadDims(p, k); derr == nil {
					p.MinMax(k)
				}
			}
		}

		st, err := p.Stats()
		if err != nil {
			return err
		}
		m := p.Metrics()
		fmt.Printf("\nPOOL STATS: pools=%d keys=%d heap-used=%d B allocs=%d frees=%d txs=%d aborts=%d recovered=%d\n",
			p.Pools(), st.Keys, st.HeapUsed, m.Get("pmemcpy_alloc_allocs_total"), m.Get("pmemcpy_alloc_frees_total"),
			m.Get("pmemcpy_alloc_transactions_total"), m.Get("pmemcpy_alloc_aborts_total"),
			m.Get("pmemcpy_alloc_recovered_total"))
		fmt.Printf("CONCURRENCY: arena-steals=%d parallel-ops=%d\n",
			m.Get("pmemcpy_alloc_arena_steals_total"), parallelOps(m))
		fmt.Printf("BLOCK-INDEX CACHE: hits=%d misses=%d invalidations=%d\n",
			m.Get("pmemcpy_cache_hits_total"), m.Get("pmemcpy_cache_misses_total"),
			m.Get("pmemcpy_cache_invalidations_total"))

		if *dump != "" {
			vals := make([]float64, 8)
			if err := pmemcpy.LoadSub(p, *dump, vals, []uint64{0}, []uint64{8}); err != nil {
				return fmt.Errorf("dump %q: %w", *dump, err)
			}
			fmt.Printf("\nDUMP %s[0:8]: %v\n", *dump, vals)
		}
		return p.Munmap()
	})
	if err != nil {
		fatal(err)
	}

	if layout == pmemcpy.LayoutHierarchy {
		fmt.Println("\nFILESYSTEM TREE (hierarchical layout):")
		printTree(n, "/demo.pool", 1)
	}
}

func printTree(n *pmemcpy.Node, dir string, depth int) {
	clk := newClock()
	ents, err := n.FS.ReadDir(clk, dir)
	if err != nil {
		return
	}
	for _, e := range ents {
		fmt.Printf("%s%s", strings.Repeat("  ", depth), e.Name)
		if e.IsDir {
			fmt.Println("/")
			printTree(n, dir+"/"+e.Name, depth+1)
		} else {
			fmt.Printf("  (%d bytes)\n", e.Size)
		}
	}
}

func newClock() *sim.Clock { return new(sim.Clock) }

// parallelOps sums the operations that took the parallel path.
func parallelOps(s pmemcpy.MetricsSnapshot) (n int64) {
	for _, m := range s.Metrics {
		if m.Name == "pmemcpy_op_total" && m.Labels[1].Value == "parallel" {
			n += m.Value
		}
	}
	return n
}

// runStats is the "pmemcli stats" subcommand: it populates the demo store
// with full instrumentation enabled and prints the observability snapshot as
// Prometheus-style exposition text. With -trace / -chrome the recorded
// operation spans are additionally written as JSON (or a chrome://tracing
// file).
func runStats(args []string) {
	fs := flag.NewFlagSet("stats", flag.ExitOnError)
	var (
		codec    = fs.String("codec", "", "serializer: bp4 (default), flat, cbin, raw")
		ranks    = fs.Int("ranks", 4, "parallel ranks populating the store")
		parallel = fs.Int("parallel", 0, "per-rank copy workers for large stores (<=1: serial)")
		tracePth = fs.String("trace", "", "write the operation trace as JSON to this file")
		chromePt = fs.String("chrome", "", "write the operation trace in chrome://tracing format to this file")
	)
	if err := fs.Parse(args); err != nil {
		fatal(err)
	}

	n := pmemcpy.NewNode(pmemcpy.DefaultConfig(), 256<<20)
	opts := []pmemcpy.MmapOption{
		pmemcpy.WithCodec(*codec),
		pmemcpy.WithParallelism(*parallel),
		pmemcpy.WithMetrics(),
		pmemcpy.WithTracing(),
	}

	var snap pmemcpy.MetricsSnapshot
	var spans []pmemcpy.Span
	_, err := pmemcpy.Run(n, *ranks, func(c *pmemcpy.Comm) error {
		p, err := pmemcpy.Mmap(c, n, "/demo.pool", opts...)
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			if err := pmemcpy.Store(p, "sim/timestep", int64(42)); err != nil {
				return err
			}
		}
		for v := 0; v < workload.DemoVars; v++ {
			name, data, offs, counts := workload.DemoBlock(v, c.Rank())
			if err := pmemcpy.Alloc[float64](p, name, uint64(*ranks)*workload.DemoElems); err != nil {
				return err
			}
			if err := pmemcpy.StoreSub(p, name, data, offs, counts); err != nil {
				return err
			}
			if err := pmemcpy.LoadSub(p, name, make([]float64, len(data)), offs, counts); err != nil {
				return err
			}
		}
		if c.Rank() == 0 {
			// Munmap is a barrier, so every rank's operations have landed by
			// the time rank 0 snapshots — but snapshot before it returns so
			// the handle is still live.
			defer func() {
				snap = p.Metrics()
				spans = p.TraceSpans()
			}()
		}
		return p.Munmap()
	})
	if err != nil {
		fatal(err)
	}

	fmt.Printf("# pmemcli stats: /demo.pool ranks=%d parallel=%d\n", *ranks, *parallel)
	if err := snap.WriteProm(os.Stdout); err != nil {
		fatal(err)
	}
	fmt.Printf("\n# trace: %d root spans recorded\n", len(spans))
	if *tracePth != "" {
		if err := writeTrace(*tracePth, spans, obs.WriteTraceJSON); err != nil {
			fatal(err)
		}
		fmt.Printf("# trace JSON written to %s\n", *tracePth)
	}
	if *chromePt != "" {
		if err := writeTrace(*chromePt, spans, obs.WriteChromeTrace); err != nil {
			fatal(err)
		}
		fmt.Printf("# chrome trace written to %s (load via chrome://tracing)\n", *chromePt)
	}
}

func writeTrace(path string, spans []pmemcpy.Span, render func(io.Writer, []pmemcpy.Span) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := render(f, spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "pmemcli:", err)
	os.Exit(1)
}
