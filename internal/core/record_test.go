package core_test

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"pmemcpy/internal/core"
	"pmemcpy/internal/mpi"
	"pmemcpy/internal/node"
	"pmemcpy/internal/serial"
)

// TestRecordBytesPinned pins every on-media metadata record form byte for
// byte: dims, value ref, plain and pooled block list, a block list with the
// trailer of a dropped block, plain and pooled quarantine list, and the hierarchy layout's framed block and whole-value
// files. A fixed script publishes one of each and the records are compared,
// in hex, with testdata/record_bytes.golden. A format change regenerates the
// golden with -update in the same diff; a refactor of the codecs must not.
// (The 8-byte PMID fields also record where the allocator placed each block:
// the golden was regenerated once, when a transaction's home arena became its
// rank's, with every byte outside those fields unchanged.)
func TestRecordBytesPinned(t *testing.T) {
	var got strings.Builder
	for _, pools := range []int{1, 4} {
		recs := eqRun(t, &core.Options{Pools: pools, Parallelism: 4}, func(p *core.PMEM) error {
			if err := pinScript(p); err != nil {
				return err
			}
			// One sharded store, then one scrub-quarantined block. On four
			// pools the victim lives off pool 0, so both list forms go pooled.
			const elems = 32768 // 256 KB: the parallel-path threshold
			if err := p.Alloc("B", serial.Float64, []uint64{elems}); err != nil {
				return err
			}
			if err := p.StoreBlock("B", []uint64{0}, []uint64{elems}, eqPattern(elems*8, 3)); err != nil {
				return err
			}
			if _, _, err := p.InjectCorruption("B", 1, 16, 1, 0xff); err != nil {
				return err
			}
			if rep, err := p.Scrub(context.Background()); err != nil || rep.Quarantined != 1 {
				return fmt.Errorf("scrub: %+v, %v", rep, err)
			}
			// An overwrite that drops a block: the list's trailer.
			if err := p.Alloc("C", serial.Float64, []uint64{4}); err != nil {
				return err
			}
			for _, v := range []float64{-1.5, 2.5} {
				if err := p.StoreBlock("C", []uint64{0}, []uint64{4}, uniformF64(4, v)); err != nil {
					return err
				}
			}
			return nil
		})
		pinDump(&got, fmt.Sprintf("hashtable/pools=%d", pools), recs)
	}

	n := eqNode(1)
	files := map[string]string{}
	pinRun(t, n, &core.Options{Layout: core.LayoutHierarchy}, func(p *core.PMEM) error {
		if err := pinScript(p); err != nil {
			return err
		}
		keys, err := p.Keys()
		if err != nil {
			return err
		}
		for _, id := range keys {
			f, err := n.FS.Open(p.Comm().Clock(), "/pin.pool/"+id)
			if err != nil {
				return err
			}
			buf := make([]byte, f.Size())
			if _, err := f.ReadAt(p.Comm().Clock(), buf, 0); err != nil {
				return err
			}
			files[id] = string(buf)
			f.Close()
		}
		return nil
	})
	pinDump(&got, "hierarchy", files)

	goldenPath := filepath.Join("testdata", "record_bytes.golden")
	if *updateGolden {
		if err := os.WriteFile(goldenPath, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("reading golden (regenerate with -update): %v", err)
	}
	if got.String() != string(want) {
		t.Errorf("published record bytes drifted from %s\ngot:\n%s", goldenPath, got.String())
	}
}

// pinScript is the layout-independent part of the pinned script: a declared
// array with one serially stored block, a scalar and a string.
func pinScript(p *core.PMEM) error {
	if err := p.Alloc("A", serial.Float64, []uint64{8, 4}); err != nil {
		return err
	}
	if err := p.StoreBlock("A", []uint64{2, 0}, []uint64{4, 4}, eqPattern(4*4*8, 1)); err != nil {
		return err
	}
	if err := p.StoreDatum("pi", &serial.Datum{Type: serial.Float64, Payload: eqPattern(8, 2)}); err != nil {
		return err
	}
	return p.StoreDatum("label", &serial.Datum{Type: serial.String, Payload: []byte("S3D combustion")})
}

func pinRun(t *testing.T, n *node.Node, opts *core.Options, fn func(p *core.PMEM) error) {
	t.Helper()
	_, err := mpi.Run(n.Machine, 1, func(c *mpi.Comm) error {
		p, err := core.Mmap(c, n, "/pin.pool", core.OptionsArg(opts))
		if err != nil {
			return err
		}
		return errors.Join(fn(p), p.Munmap())
	})
	if err != nil {
		t.Fatalf("%+v: %v", *opts, err)
	}
}

func pinDump(w *strings.Builder, section string, recs map[string]string) {
	ids := make([]string, 0, len(recs))
	for id := range recs {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		fmt.Fprintf(w, "%s %s = %x\n", section, id, recs[id])
	}
}

// TestHierarchyDamagedFrame damages the one frame of a hierarchy variable's
// file, which no allocator or hashtable stands in front of, and requires every
// read of it to fail with ErrCorrupt: a rank, a length or a file size that
// does not add up is rejected before anything is sized by it.
func TestHierarchyDamagedFrame(t *testing.T) {
	const lenWord = 2 + 8 + 8 // dtype, rank, one offset, one count
	putLen := func(n int64) func([]byte) []byte {
		return func(f []byte) []byte {
			binary.LittleEndian.PutUint64(f[lenWord:], uint64(n))
			return f
		}
	}
	cases := []struct {
		name   string
		damage func(frame []byte) []byte
	}{
		{"rank 200", func(f []byte) []byte { f[1] = 200; return f }},
		{"length 1<<40", putLen(1 << 40)},
		{"length -41", putLen(-41)},
		{"truncated header", func(f []byte) []byte { return f[:lenWord+3] }},
		{"truncated payload", func(f []byte) []byte { return f[:len(f)-5] }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			n := eqNode(1)
			pinRun(t, n, &core.Options{Layout: core.LayoutHierarchy, Codec: "raw"}, func(p *core.PMEM) error {
				clk := p.Comm().Clock()
				if err := p.Alloc("A", serial.Float64, []uint64{8}); err != nil {
					return err
				}
				if err := p.StoreBlock("A", []uint64{0}, []uint64{8}, eqPattern(64, 5)); err != nil {
					return err
				}
				f, err := n.FS.Open(clk, "/pin.pool/A")
				if err != nil {
					return err
				}
				frame := make([]byte, f.Size())
				if _, err := f.ReadAt(clk, frame, 0); err != nil {
					return err
				}
				f.Close()
				if f, err = n.FS.Create(clk, "/pin.pool/A"); err != nil {
					return err
				}
				if _, err := f.WriteAt(clk, tc.damage(frame), 0); err != nil {
					return err
				}
				f.Close()

				if err := p.LoadBlock("A", []uint64{0}, []uint64{8}, make([]byte, 64)); !errors.Is(err, core.ErrCorrupt) {
					t.Errorf("LoadBlock = %v, want ErrCorrupt", err)
				}
				if v, err := p.LoadBlockView("A", []uint64{0}, []uint64{8}); !errors.Is(err, core.ErrCorrupt) {
					t.Errorf("LoadBlockView = %v, want ErrCorrupt", err)
					if v != nil {
						v.Close()
					}
				}
				return nil
			})
		})
	}
}
