package main

import (
	"fmt"
	"io"

	"pmemcpy"
	"pmemcpy/internal/workload"
)

// deepRanks fixes the -deep workload shape; the store contents are fully
// deterministic, so the summary line (and, under -corrupt, the damaged
// offsets) are stable across runs and pinned by golden files.
const deepRanks = 2

// buildStore populates a deterministic store: the demo dataset, written by
// deepRanks parallel ranks.
func buildStore(n *pmemcpy.Node) error {
	_, err := pmemcpy.Run(n, deepRanks, func(c *pmemcpy.Comm) error {
		p, err := pmemcpy.Mmap(c, n, "/deep.pool")
		if err != nil {
			return err
		}
		if err := workload.StoreDemo(p, "deep-check dataset", false); err != nil {
			return err
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
			// A damaged block header, then a store over the whole array: the
			// store drops both its blocks, and the damaged one's value range
			// is lost with it.
			if _, _, err := p.InjectCorruption("rect2", 0, 0, 8, 0xff); err != nil {
				return fmt.Errorf("injecting: %w", err)
			}
			var all []float64
			for r := 0; r < deepRanks; r++ {
				_, data, _, _ := workload.DemoBlock(2, r)
				all = append(all, data...)
			}
			if err := pmemcpy.StoreSub(p, "rect2", all, []uint64{0}, []uint64{uint64(len(all))}); err != nil {
				return fmt.Errorf("overwriting: %w", err)
			}
			fmt.Fprintf(w, "damaged stored bytes of \"rect1\", \"rect2\", \"sim/label\" and \"sim/notes\" (checksums untouched), then overwrote \"rect2\"\n")
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
		for _, id := range rep.Unranged {
			fmt.Fprintf(w, "unranged: id %q lost a dropped block's value range\n", id)
		}
		return 2
	}
	return 0
}
