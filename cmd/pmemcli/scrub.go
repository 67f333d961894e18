package main

import (
	"context"
	"errors"
	"flag"
	"fmt"

	"pmemcpy"
	"pmemcpy/internal/workload"
)

// runScrub is the "pmemcli scrub" subcommand: it populates the demo store,
// optionally injects silent corruption (damaged bytes, untouched checksums),
// runs a rate-limited scrub pass, and shows the quarantine doing its job —
// reads of a quarantined block fail fast with ErrCorrupt instead of
// returning garbage.
func runScrub(args []string) {
	fs := flag.NewFlagSet("scrub", flag.ExitOnError)
	var (
		ranks   = fs.Int("ranks", 4, "parallel ranks populating the store")
		corrupt = fs.Bool("corrupt", false, "silently damage one stored block before scrubbing")
		rate    = fs.Int64("rate", 0, "scrub rate limit in bytes per virtual second (0: unpaced)")
	)
	if err := fs.Parse(args); err != nil {
		fatal(err)
	}

	n := pmemcpy.NewNode(pmemcpy.DefaultConfig(), 256<<20)
	opts := []pmemcpy.MmapOption{pmemcpy.WithScrubber(*rate)}

	// Populate: the same demo dataset the inspector uses.
	_, err := pmemcpy.Run(n, *ranks, func(c *pmemcpy.Comm) error {
		p, err := pmemcpy.Mmap(c, n, "/demo.pool", opts...)
		if err != nil {
			return err
		}
		if err := workload.StoreDemo(p, "demo dataset", false); err != nil {
			return err
		}
		return p.Munmap()
	})
	if err != nil {
		fatal(err)
	}

	_, err = pmemcpy.Run(n, 1, func(c *pmemcpy.Comm) error {
		p, err := pmemcpy.Mmap(c, n, "/demo.pool", opts...)
		if err != nil {
			return err
		}
		if *corrupt {
			off, nbytes, err := p.InjectCorruption("rect1", 0, 100, 1, 0x01)
			if err != nil {
				return err
			}
			fmt.Printf("injected: flipped 1 bit in %d byte(s) of \"rect1\" block 0 at pool offset %d\n", nbytes, off)
		}
		rep, err := p.Scrub(context.Background())
		if err != nil {
			return err
		}
		fmt.Printf("%s\n", rep)
		if q := p.Quarantined(); len(q) > 0 {
			fmt.Printf("quarantined pool offsets: %v\n", q)
			// The whole array: which rank's block is block 0 depends on
			// which rank published first.
			elems := uint64(*ranks) * workload.DemoElems
			err := pmemcpy.LoadSub(p, "rect1", make([]float64, elems), []uint64{0}, []uint64{elems})
			switch {
			case errors.Is(err, pmemcpy.ErrCorrupt):
				fmt.Printf("read of \"rect1\" fails fast: %v\n", err)
			case err != nil:
				return err
			default:
				return fmt.Errorf("read of quarantined block unexpectedly succeeded")
			}
		}
		return p.Munmap()
	})
	if err != nil {
		fatal(err)
	}
}
