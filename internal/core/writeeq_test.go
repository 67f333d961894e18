package core_test

// Write-path equivalence suite for the unified commit engine (writeplan.go):
// the serial store, the parallel configuration at one worker, and the async
// pipeline at a one-op coalesce window are different planners over the SAME
// engine, so identical inputs must publish byte-identical metadata records —
// same CRCs, same block layout (PMIDs and encoded lengths), same pool
// placement — across codecs and pool counts. The comparison is on the raw
// published bytes, which encode all of those.
//
// The abort-semantics test pins the shared failure contract: an allocation
// failure on any planner aborts the pool transaction (one allocator abort,
// nothing published), errors surface through the path's own channel (return
// value or Future), and the handle keeps working.

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
	"testing"

	"pmemcpy/internal/checksum"
	"pmemcpy/internal/core"
	"pmemcpy/internal/mpi"
	"pmemcpy/internal/node"
	"pmemcpy/internal/serial"
	"pmemcpy/internal/sim"
)

// eqModes are the three store modes the suite compares. "parallel" runs the
// parallel configuration at w=1 (the engine must route it through the same
// serial plan), "async" commits every submission as its own one-op batch.
var eqModes = []string{"serial", "parallel", "async"}

func eqNode(pools int) *node.Node {
	var n *node.Node
	if pools > 1 {
		n = node.New(sim.DefaultConfig(), 64<<20, node.WithPMEMPools(pools))
	} else {
		n = node.New(sim.DefaultConfig(), 64<<20)
	}
	n.Machine.SetConcurrency(1)
	return n
}

// eqRun maps a fresh store with opts, runs script on it, and returns every
// published metadata record, keyed by id.
func eqRun(t *testing.T, opts *core.Options, script func(p *core.PMEM) error) map[string]string {
	t.Helper()
	recs := map[string]string{}
	n := eqNode(opts.Pools)
	_, err := mpi.Run(n.Machine, 1, func(c *mpi.Comm) error {
		p, err := core.Mmap(c, n, "/eq.pool", core.OptionsArg(opts))
		if err != nil {
			return err
		}
		if err := script(p); err != nil {
			return err
		}
		keys, err := p.Keys()
		if err != nil {
			return err
		}
		for _, id := range keys {
			raw, ok, err := p.RawValue(id)
			if err != nil {
				return err
			}
			if !ok {
				return fmt.Errorf("key %q listed but has no record", id)
			}
			recs[id] = string(raw)
		}
		return p.Munmap()
	})
	if err != nil {
		t.Fatalf("%+v: %v", *opts, err)
	}
	return recs
}

// eqRecords runs the canonical store script in one of the eqModes and returns
// the published records.
func eqRecords(t *testing.T, codec string, pools int, mode string) map[string]string {
	t.Helper()
	opts := &core.Options{Codec: codec, Pools: pools}
	switch mode {
	case "parallel":
		opts.Parallelism = 1
	case "async":
		opts.Async = true
		opts.CoalesceWindow = 1
	}
	return eqRun(t, opts, func(p *core.PMEM) error {
		ctx := context.Background()
		storeBlock := func(id string, offs, counts []uint64, data []byte) error {
			if mode == "async" {
				fut := p.StoreBlockAsync(id, offs, counts, data)
				if err := p.Flush(ctx); err != nil {
					return err
				}
				return fut.Wait(ctx)
			}
			return p.StoreBlock(id, offs, counts, data)
		}
		storeDatum := func(id string, d *serial.Datum) error {
			if mode == "async" {
				fut := p.StoreDatumAsync(id, d)
				if err := p.Flush(ctx); err != nil {
					return err
				}
				return fut.Wait(ctx)
			}
			return p.StoreDatum(id, d)
		}

		// The script: two block variables (one with overlapping appends), four
		// whole values — each then overwritten by a whole value: inline over
		// inline (another length), value ref over value ref (the same length),
		// value ref over inline and inline over value ref — and a fan of small
		// variables that spreads over every member pool on a sharded namespace.
		if err := p.Alloc("X", serial.Float64, []uint64{8, 16}); err != nil {
			return err
		}
		for r := uint64(0); r < 8; r += 4 {
			if err := storeBlock("X", []uint64{r, 0}, []uint64{4, 16}, eqPattern(4*16*8, byte(r))); err != nil {
				return err
			}
		}
		if err := p.Alloc("Y", serial.Int32, []uint64{16, 8}); err != nil {
			return err
		}
		for _, rows := range [][2]uint64{{0, 4}, {4, 8}, {2, 6}} {
			data := eqPattern(int(rows[1]-rows[0])*8*4, byte(rows[0]))
			if err := storeBlock("Y", []uint64{rows[0], 0}, []uint64{rows[1] - rows[0], 8}, data); err != nil {
				return err
			}
		}
		if err := storeDatum("S", &serial.Datum{Type: serial.Bytes, Payload: []byte("unified write engine")}); err != nil {
			return err
		}
		if err := storeDatum("D", &serial.Datum{Type: serial.Float64, Dims: []uint64{128}, Payload: eqPattern(128*8, 7)}); err != nil {
			return err
		}
		if err := storeDatum("S", &serial.Datum{Type: serial.Bytes, Payload: []byte("one read-modify-write per publish, whatever the planner")}); err != nil {
			return err
		}
		if err := storeDatum("D", &serial.Datum{Type: serial.Float64, Dims: []uint64{128}, Payload: eqPattern(128*8, 8)}); err != nil {
			return err
		}
		small, large := &serial.Datum{Type: serial.Int64, Payload: eqPattern(8, 9)}, &serial.Datum{Type: serial.Bytes, Payload: eqPattern(300, 9)}
		for _, st := range []struct {
			id string
			d  *serial.Datum
		}{{"T", small}, {"U", large}, {"T", large}, {"U", small}} {
			if err := storeDatum(st.id, st.d); err != nil {
				return err
			}
		}
		if m := p.Metrics(); m.Get("pmemcpy_superseded_blocks_total") != 2 || m.Get("pmemcpy_values_inline_total") != 4 {
			return fmt.Errorf("four whole-value overwrites superseded %d blocks (want D's and U's) and published %d values inline (want S twice, T, U)",
				m.Get("pmemcpy_superseded_blocks_total"), m.Get("pmemcpy_values_inline_total"))
		}
		for k := 0; k < 8; k++ {
			id := fmt.Sprintf("var%d", k)
			if err := p.Alloc(id, serial.Int32, []uint64{4, 4}); err != nil {
				return err
			}
			if err := storeBlock(id, []uint64{0, 0}, []uint64{4, 4}, eqPattern(4*4*4, byte(k))); err != nil {
				return err
			}
		}

		return nil
	})
}

// eqPattern builds a deterministic payload of n bytes seeded by s.
func eqPattern(n int, s byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i)*31 + s
	}
	return b
}

// TestWritePathEquivalence pins the engine contract: all three store modes
// publish byte-identical records for identical inputs, across the bp4 and
// raw codecs and across single- and four-pool namespaces.
func TestWritePathEquivalence(t *testing.T) {
	for _, codec := range []string{"bp4", "raw"} {
		for _, pools := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/pools=%d", codec, pools), func(t *testing.T) {
				base := eqRecords(t, codec, pools, eqModes[0])
				if len(base) == 0 {
					t.Fatal("script published no records")
				}
				for _, mode := range eqModes[1:] {
					got := eqRecords(t, codec, pools, mode)
					if len(got) != len(base) {
						t.Errorf("%s published %d records, serial published %d", mode, len(got), len(base))
					}
					for id, want := range base {
						g, ok := got[id]
						if !ok {
							t.Errorf("%s: record %q missing", mode, id)
							continue
						}
						if g != want {
							t.Errorf("%s: record %q differs from serial:\n got %x\nwant %x", mode, id, g, want)
						}
					}
				}
			})
		}
	}

	// The two fills that join or run CRCs across fragments, each against the
	// plain serial store of the same bytes: under the raw codec the stored
	// bytes are known by construction, so the published CRC is checked against
	// checksum.Sum of them directly, and the records must not differ by path.
	sameRecord := func(t *testing.T, id string, wantCRC uint32, recs ...map[string]string) {
		t.Helper()
		for i, r := range recs {
			rec := r[id]
			if len(rec) < 4 {
				t.Fatalf("path %d: no record for %q", i, id)
			}
			if got := binary.LittleEndian.Uint32([]byte(rec[len(rec)-4:])); got != wantCRC {
				t.Errorf("path %d: %q published crc %#08x, checksum.Sum of the stored bytes %#08x", i, id, got, wantCRC)
			}
			if rec != recs[0][id] {
				t.Errorf("path %d: record %q differs from path 0:\n got %x\nwant %x", i, id, rec, recs[0][id])
			}
		}
	}
	t.Run("raw/chunked", func(t *testing.T) {
		// A 300 KB whole value, stored over a 200 KB one: one job at
		// Parallelism 1, four concurrent byte-range jobs joined with
		// checksum.Combine at 4. Either way the overwrite frees the block it
		// shadows, so the two stores place their blocks identically.
		d := &serial.Datum{Type: serial.Float64, Dims: []uint64{300 << 7}, Payload: eqPattern(300<<10, 5)}
		var recs []map[string]string
		for _, workers := range []int{1, 4} {
			recs = append(recs, eqRun(t, &core.Options{Codec: "raw", Parallelism: workers}, func(p *core.PMEM) error {
				if err := p.StoreDatum("V", &serial.Datum{Type: serial.Bytes, Payload: eqPattern(200<<10, 4)}); err != nil {
					return err
				}
				if err := p.StoreDatum("V", d); err != nil {
					return err
				}
				if m := p.Metrics(); m.Get("pmemcpy_superseded_bytes_total") != 200<<10+1 || m.Get("pmemcpy_alloc_frees_total") == 0 {
					return fmt.Errorf("the chunked overwrite superseded %d bytes (frees %d)",
						m.Get("pmemcpy_superseded_bytes_total"), m.Get("pmemcpy_alloc_frees_total"))
				}
				return nil
			}))
		}
		stored := append([]byte{byte(serial.Float64)}, d.Payload...)
		sameRecord(t, "V", checksum.Sum(stored), recs...)
	})
	t.Run("raw/coalesced", func(t *testing.T) {
		// Five adjacent sub-stores coalesce into one async unit whose CRC runs
		// across the fragments; one sync store of the same rows is the same block.
		const rows, cols, frags = 4, 16, 5
		data := eqPattern(frags*rows*cols*8, 9)
		alloc := func(p *core.PMEM) error { return p.Alloc("C", serial.Float64, []uint64{frags * rows, cols}) }
		coalesced := eqRun(t, &core.Options{Codec: "raw", Async: true}, func(p *core.PMEM) error {
			if err := alloc(p); err != nil {
				return err
			}
			for f := uint64(0); f < frags; f++ {
				p.StoreBlockAsync("C", []uint64{f * rows, 0}, []uint64{rows, cols}, data[f*rows*cols*8:(f+1)*rows*cols*8])
			}
			if err := p.Flush(context.Background()); err != nil {
				return err
			}
			if got := p.Metrics().Get("pmemcpy_async_coalesced_total"); got != frags-1 {
				return fmt.Errorf("coalesced %d sub-stores, want %d", got, frags-1)
			}
			return nil
		})
		serialStore := eqRun(t, &core.Options{Codec: "raw"}, func(p *core.PMEM) error {
			if err := alloc(p); err != nil {
				return err
			}
			return p.StoreBlock("C", []uint64{0, 0}, []uint64{frags * rows, cols}, data)
		})
		sameRecord(t, "C", checksum.Sum(data), serialStore, coalesced)
	})
}

// abortOpts is a planner's configuration in the abort-semantics rows.
func abortOpts(mode string) *core.Options {
	opts := &core.Options{Codec: "raw"}
	switch mode {
	case "parallel":
		opts.Parallelism = 4
	case "async":
		opts.Async = true
		opts.CoalesceWindow = 1
	}
	return opts
}

// abortStore stores data over the whole of array id on the mode's own
// channel: the call's return, or the Future's.
func abortStore(p *core.PMEM, mode, id string, counts []uint64, data []byte) error {
	offs := make([]uint64, len(counts))
	if mode != "async" {
		return p.StoreBlock(id, offs, counts, data)
	}
	ctx := context.Background()
	fut := p.StoreBlockAsync(id, offs, counts, data)
	_ = p.Flush(ctx)
	return fut.Wait(ctx)
}

// TestCommitAbortSemantics pins the engine's shared failure contract across
// the serial, parallel, and async planners: an allocation that cannot fit
// fails its reservation before any pool transaction (none runs, none aborts;
// the shards reserved before it are cancelled), publishes nothing, surfaces
// the error on the path's own channel, and leaves the handle usable. The
// media rows fail the payload persist instead, after the plan's blocks were
// reserved: the engine discards them and cancels them before failing, so the
// allocator's live count and bytes end where they started and the payload no
// longer reads back.
func TestCommitAbortSemantics(t *testing.T) {
	for _, mode := range eqModes {
		t.Run("media/"+mode, func(t *testing.T) { mediaAbortRow(t, mode) })
		t.Run(mode, func(t *testing.T) {
			opts := abortOpts(mode)
			// A 4 MB device yields a 3 MB pool; the 8 MB store below cannot
			// allocate (on the parallel path, not even shard by shard).
			n := node.New(sim.DefaultConfig(), 4<<20)
			n.Machine.SetConcurrency(1)
			_, err := mpi.Run(n.Machine, 1, func(c *mpi.Comm) error {
				p, err := core.Mmap(c, n, "/abort.pool", core.OptionsArg(opts))
				if err != nil {
					return err
				}
				const rows = 1024
				if err := p.Alloc("big", serial.Float64, []uint64{rows, 1024}); err != nil {
					return err
				}
				before := p.Metrics()
				huge := make([]byte, rows*1024*8)
				storeErr := abortStore(p, mode, "big", []uint64{rows, 1024}, huge)
				if storeErr == nil {
					return fmt.Errorf("oversized store succeeded, want allocation failure")
				}
				for _, name := range []string{"pmemcpy_alloc_transactions_total", "pmemcpy_alloc_aborts_total"} {
					if got := p.Metrics().Get(name) - before.Get(name); got != 0 {
						return fmt.Errorf("%s grew by %d, want 0", name, got)
					}
				}
				// Nothing published: the variable has dims but no blocks.
				dst := make([]byte, 8)
				err = p.LoadBlock("big", []uint64{0, 0}, []uint64{1, 1}, dst)
				if !errors.Is(err, core.ErrNotFound) {
					return fmt.Errorf("LoadBlock after abort = %v, want ErrNotFound", err)
				}
				// The handle stays usable: a store that fits commits and reads
				// back through the same engine.
				small := eqPattern(2*1024*8, 3)
				if err := p.StoreBlock("big", []uint64{0, 0}, []uint64{2, 1024}, small); err != nil {
					return fmt.Errorf("store after abort: %w", err)
				}
				got := make([]byte, len(small))
				if err := p.LoadBlock("big", []uint64{0, 0}, []uint64{2, 1024}, got); err != nil {
					return fmt.Errorf("load after abort: %w", err)
				}
				for i := range got {
					if got[i] != small[i] {
						return fmt.Errorf("byte %d = %d, want %d after recovery store", i, got[i], small[i])
					}
				}
				return p.Munmap()
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// mediaAbortRow fails each persist of a 512 KB store in turn with an
// uncorrectable media error until the failure lands on the payload's own
// persist (a core.commit.* point; the parallel planner shards the store), and
// holds that failure to the contract.
func mediaAbortRow(t *testing.T, mode string) {
	const rows, cols = 1024, 64
	data := eqPattern(rows*cols*8, 5)
	for k := int64(0); ; k++ {
		var storeErr error
		n := node.New(sim.DefaultConfig(), 16<<20)
		n.Machine.SetConcurrency(1)
		_, err := mpi.Run(n.Machine, 1, func(c *mpi.Comm) error {
			p, err := core.Mmap(c, n, "/media.pool", core.OptionsArg(abortOpts(mode)))
			if err != nil {
				return err
			}
			if err := p.Alloc("big", serial.Float64, []uint64{rows, cols}); err != nil {
				return err
			}
			blocks := liveBlocks(p)
			live := p.Metrics().Get("pmemcpy_alloc_live_bytes")
			n.Device.InjectTransient(k, 5)
			storeErr = abortStore(p, mode, "big", []uint64{rows, cols}, data)
			n.Device.DisarmInjection()
			if storeErr == nil || !strings.Contains(storeErr.Error(), "core.commit.") {
				return p.Munmap()
			}
			if !errors.Is(storeErr, core.ErrMedia) {
				return fmt.Errorf("payload persist failure %q does not wrap ErrMedia", storeErr)
			}
			if got, want := liveBlocks(p), blocks; got != want {
				return fmt.Errorf("allocs-frees = %d after the failed store, %d before it", got, want)
			}
			if got := p.Metrics().Get("pmemcpy_alloc_live_bytes"); got != live {
				return fmt.Errorf("live bytes = %d after the failed store, %d before it", got, live)
			}
			// The fill took its granules without zeroing them, so the blocks
			// went back to unwritten before they were freed: nothing of the
			// payload reads back from the device.
			if dev, err := n.Device.Slice(0, n.Device.Size()); err != nil || bytes.Contains(dev, data[64:320]) {
				return fmt.Errorf("the failed store's payload still reads back from the device (err %v)", err)
			}
			err = p.LoadBlock("big", []uint64{0, 0}, []uint64{1, 1}, make([]byte, 8))
			if !errors.Is(err, core.ErrNotFound) {
				return fmt.Errorf("LoadBlock after the failed store = %v, want ErrNotFound", err)
			}
			if err := abortStore(p, mode, "big", []uint64{rows, cols}, data); err != nil {
				return fmt.Errorf("store after the failed one: %w", err)
			}
			got := make([]byte, len(data))
			if err := p.LoadBlock("big", []uint64{0, 0}, []uint64{rows, cols}, got); err != nil || !bytes.Equal(got, data) {
				return fmt.Errorf("load after the failed store: equal=%v err=%v", bytes.Equal(got, data), err)
			}
			return p.Munmap()
		})
		if err != nil {
			t.Fatalf("persist %d: %v", k, err)
		}
		if storeErr == nil {
			t.Fatalf("the store finished in %d persists without one failing at a payload point", k)
		}
		if strings.Contains(storeErr.Error(), "core.commit.") {
			return
		}
	}
}
