package main

import (
	"fmt"
	"io"
	"strings"

	"pmemcpy"
	"pmemcpy/internal/workload"
)

// deepRanks fixes the -deep workload shape; the store contents are fully
// deterministic, so the summary line (and, under -corrupt, the damaged
// offsets) are stable across runs and pinned by golden files.
const deepRanks = 2

// buildStore populates a deterministic store the way the experiment harness
// does: a few decomposed arrays plus scalar metadata, written by deepRanks
// parallel ranks.
func buildStore(n *pmemcpy.Node) error {
	_, err := pmemcpy.Run(n, deepRanks, func(c *pmemcpy.Comm) error {
		p, err := pmemcpy.Mmap(c, n, "/deep.pool")
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			if err := pmemcpy.Store(p, "sim/timestep", int64(42)); err != nil {
				return err
			}
			if err := pmemcpy.StoreString(p, "sim/label", "deep-check dataset"); err != nil {
				return err
			}
			// Too long to live in its record: a whole value in a block of its own.
			if err := pmemcpy.StoreString(p, "sim/notes", strings.Repeat("deep-check dataset; ", 10)); err != nil {
				return err
			}
		}
		for v := 0; v < workload.DemoVars; v++ {
			name, data, offs, counts := workload.DemoBlock(v, c.Rank())
			if err := pmemcpy.Alloc[float64](p, name, uint64(deepRanks)*workload.DemoElems); err != nil {
				return err
			}
			if err := pmemcpy.StoreSub(p, name, data, offs, counts); err != nil {
				return err
			}
		}
		return p.Munmap()
	})
	return err
}

// runDeep builds the store, optionally injects silent corruption (damaged
// bytes, untouched checksums), and sweeps every published block's CRC32C.
// Exit codes: 0 clean, 2 corruption detected, 3 infrastructure failure.
func runDeep(w io.Writer, corrupt bool) int {
	n := pmemcpy.NewNode(pmemcpy.DefaultConfig(), 64<<20)
	if err := buildStore(n); err != nil {
		fmt.Fprintf(w, "pmemfsck: building store: %v\n", err)
		return 3
	}

	var rep *pmemcpy.DeepReport
	_, err := pmemcpy.Run(n, 1, func(c *pmemcpy.Comm) error {
		p, err := pmemcpy.Mmap(c, n, "/deep.pool")
		if err != nil {
			return err
		}
		if corrupt {
			// An array block: flip one bit mid-payload. A whole value in each
			// form — inline in its record, and in a block of its own: invert
			// its first 8 bytes. None touches the recorded CRC.
			if _, _, err := p.InjectCorruption("rect1", 0, 100, 1, 0x01); err != nil {
				return fmt.Errorf("injecting: %w", err)
			}
			for _, id := range []string{"sim/label", "sim/notes"} {
				if _, _, err := p.InjectCorruption(id, -1, 0, 8, 0xff); err != nil {
					return fmt.Errorf("injecting: %w", err)
				}
			}
			fmt.Fprintf(w, "damaged stored bytes of \"rect1\", \"sim/label\" and \"sim/notes\" (checksums untouched)\n")
		}
		rep, err = p.DeepCheck()
		if err != nil {
			return err
		}
		return p.Munmap()
	})
	if err != nil {
		fmt.Fprintf(w, "pmemfsck: %v\n", err)
		return 3
	}

	fmt.Fprintf(w, "%s\n", rep.Summary())
	if !rep.OK() {
		for _, c := range rep.Corrupt {
			fmt.Fprintf(w, "corrupt: %s\n", c)
		}
		return 2
	}
	return 0
}
