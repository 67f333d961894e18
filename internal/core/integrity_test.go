package core_test

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"pmemcpy/internal/bytesview"
	"pmemcpy/internal/core"
	"pmemcpy/internal/mpi"
	"pmemcpy/internal/node"
	"pmemcpy/internal/serial"
)

// storeRect allocates a 1-D float64 array and stores its whole extent.
func storeRect(p *core.PMEM, id string, elems int) error {
	if err := p.Alloc(id, serial.Float64, []uint64{uint64(elems)}); err != nil {
		return err
	}
	data := make([]float64, elems)
	for i := range data {
		data[i] = float64(i) * 1.5
	}
	return p.StoreBlock(id, []uint64{0}, []uint64{uint64(elems)}, bytesview.Bytes(data))
}

func loadRect(p *core.PMEM, id string, elems int) error {
	dst := make([]byte, elems*8)
	return p.LoadBlock(id, []uint64{0}, []uint64{uint64(elems)}, dst)
}

// verifySingle runs fn on a fresh store opened with the given verify mode.
func verifySingle(t *testing.T, mode core.VerifyMode, fn func(p *core.PMEM) error) {
	t.Helper()
	n := newNode()
	_, err := mpi.Run(n.Machine, 1, func(c *mpi.Comm) error {
		p, err := core.Mmap(c, n, "/integrity.pool", core.WithVerifyReads(mode))
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

func TestVerifyFullLoadBlockSurfacesErrCorrupt(t *testing.T) {
	verifySingle(t, core.VerifyFull, func(p *core.PMEM) error {
		if err := storeRect(p, "A", 256); err != nil {
			return err
		}
		if err := loadRect(p, "A", 256); err != nil {
			return err // clean load must pass
		}
		if _, _, err := p.InjectCorruption("A", 0, 40, 1, 0x04); err != nil {
			return err
		}
		err := loadRect(p, "A", 256)
		if !errors.Is(err, core.ErrCorrupt) {
			t.Errorf("corrupted LoadBlock under VerifyFull = %v, want ErrCorrupt", err)
		}
		return nil
	})
}

// TestVerifyFullLoadDatumSurfacesErrCorrupt flips one stored bit of a whole
// value in each form — two elements live in the record, 64 in a block of their
// own — and requires the verified load to refuse both.
func TestVerifyFullLoadDatumSurfacesErrCorrupt(t *testing.T) {
	verifySingle(t, core.VerifyFull, func(p *core.PMEM) error {
		for id, elems := range map[string]int{"inline": 2, "value ref": 64} {
			v := make([]float64, elems)
			v[0], v[1] = 3.14159, 2.71828
			if err := p.StoreDatum(id, &serial.Datum{Type: serial.Float64, Dims: []uint64{uint64(elems)}, Payload: bytesview.Bytes(v)}); err != nil {
				return err
			}
			if _, err := p.LoadDatum(id); err != nil {
				return err
			}
			if _, _, err := p.InjectCorruption(id, -1, 3, 1, 0x80); err != nil {
				return err
			}
			_, err := p.LoadDatum(id)
			if !errors.Is(err, core.ErrCorrupt) {
				t.Errorf("corrupted LoadDatum of the %s under VerifyFull = %v, want ErrCorrupt", id, err)
			}
		}
		if got := p.Metrics().Get("pmemcpy_values_inline_total"); got != 1 {
			t.Errorf("%d values were published inline, want the 2-element one", got)
		}
		return nil
	})
}

// TestInlineValueCorruptionLifecycle follows one flipped bit in an inline
// value's bytes — which sit in the metadata record's own value block —
// through every consumer of the published CRC: a verified load and VerifyVar
// refuse it, DeepCheck reports it as the id's whole value at the damaged
// offset, Scrub quarantines it, the quarantine outlives a reopen and fails an
// unverified load fast — and each way the bytes can be replaced (an overwrite
// in place, an overwrite of another length, a delete) takes them off the list.
func TestInlineValueCorruptionLifecycle(t *testing.T) {
	n := newNode()
	open := func(mode core.VerifyMode, fn func(p *core.PMEM) error) {
		t.Helper()
		_, err := mpi.Run(n.Machine, 1, func(c *mpi.Comm) error {
			p, err := core.Mmap(c, n, "/inline.pool", core.WithVerifyReads(mode))
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
	ids := []string{"in-place", "relinked", "deleted"}
	scalar := func(v int64) *serial.Datum {
		return &serial.Datum{Type: serial.Int64, Payload: bytesview.Bytes([]int64{v})}
	}
	open(core.VerifyFull, func(p *core.PMEM) error {
		damaged := map[string]int64{}
		for _, id := range ids {
			if err := p.StoreDatum(id, scalar(1)); err != nil {
				return err
			}
			at, _, err := p.InjectCorruption(id, -1, 9, 1, 0x01)
			if err != nil {
				return err
			}
			damaged[id] = at - 9
			if _, err := p.LoadDatum(id); !errors.Is(err, core.ErrCorrupt) {
				t.Errorf("%s: verified load = %v, want ErrCorrupt", id, err)
			}
			if err := p.VerifyVar(id); !errors.Is(err, core.ErrCorrupt) {
				t.Errorf("%s: VerifyVar = %v, want ErrCorrupt", id, err)
			}
		}
		deep, err := p.DeepCheck()
		if err != nil {
			return err
		}
		if len(deep.Corrupt) != len(ids) {
			t.Fatalf("DeepCheck = %s, want the %d inline values", deep.Summary(), len(ids))
		}
		for _, c := range deep.Corrupt {
			if c.Block != -1 || c.Offset != damaged[c.ID] {
				t.Errorf("DeepCheck reports %s; want a whole value at offset %d", c, damaged[c.ID])
			}
		}
		if vs := p.VerifyStore(); len(vs) != 0 {
			t.Errorf("damaged value bytes are not a metadata violation: %v", vs)
		}
		rep, err := p.Scrub(context.Background())
		if err != nil || rep.Corruptions != len(ids) || rep.Quarantined != len(ids) {
			t.Errorf("Scrub = %+v, %v; want %d corrupt and quarantined", rep, err, len(ids))
		}
		return nil
	})
	open(core.VerifyOff, func(p *core.PMEM) error {
		if got := len(p.Quarantined()); got != len(ids) {
			t.Fatalf("%d blocks quarantined after the reopen, want %d", got, len(ids))
		}
		for _, id := range ids {
			if _, err := p.LoadDatum(id); !errors.Is(err, core.ErrCorrupt) {
				t.Errorf("%s: unverified load of a quarantined value = %v, want ErrCorrupt", id, err)
			}
		}
		if err := p.StoreDatum("in-place", scalar(2)); err != nil {
			return err
		}
		if err := p.StoreDatum("relinked", &serial.Datum{Type: serial.Bytes, Payload: []byte("another length")}); err != nil {
			return err
		}
		if _, err := p.Delete("deleted"); err != nil {
			return err
		}
		if q := p.Quarantined(); len(q) != 0 {
			t.Errorf("still quarantined after every value was replaced: %v", q)
		}
		if d, err := p.LoadDatum("in-place"); err != nil || !reflect.DeepEqual(d.Payload, scalar(2).Payload) {
			t.Errorf("in-place after the overwrite = %v, %v", d, err)
		}
		if d, err := p.LoadDatum("relinked"); err != nil || string(d.Payload) != "another length" {
			t.Errorf("relinked after the overwrite = %v, %v", d, err)
		}
		if deep, err := p.DeepCheck(); err != nil || !deep.OK() {
			t.Errorf("DeepCheck after the overwrites = %v, %v", deep, err)
		}
		return nil
	})
}

// TestVerifyOffReturnsDamagedBytes pins what "off" means: the damaged value
// flows through undetected (that is the deal the default mode makes), and
// DeepCheck still finds it after the fact.
func TestVerifyOffReturnsDamagedBytes(t *testing.T) {
	verifySingle(t, core.VerifyOff, func(p *core.PMEM) error {
		if err := storeRect(p, "A", 256); err != nil {
			return err
		}
		// Damage deep in the packed payload so the codec decodes wrong values
		// rather than tripping over torn framing.
		if _, _, err := p.InjectCorruption("A", 0, 1000, 1, 0x04); err != nil {
			return err
		}
		if err := loadRect(p, "A", 256); err != nil {
			t.Errorf("LoadBlock under VerifyOff = %v, want silent success", err)
		}
		rep, err := p.DeepCheck()
		if err != nil {
			return err
		}
		if rep.OK() || len(rep.Corrupt) != 1 || rep.Corrupt[0].ID != "A" {
			t.Errorf("DeepCheck = %s, want exactly the damaged block of A", rep.Summary())
		}
		return nil
	})
}

// TestVerifySampledStride pins the sampling contract: corruption on a hot
// block is caught within verifySampleEvery (8) consecutive loads, because
// the sampler is a deterministic stride, not a coin flip.
func TestVerifySampledStride(t *testing.T) {
	verifySingle(t, core.VerifySampled, func(p *core.PMEM) error {
		if err := storeRect(p, "A", 256); err != nil {
			return err
		}
		if _, _, err := p.InjectCorruption("A", 0, 40, 1, 0x04); err != nil {
			return err
		}
		for i := 1; i <= 8; i++ {
			if err := loadRect(p, "A", 256); errors.Is(err, core.ErrCorrupt) {
				return nil // caught within the stride
			}
		}
		t.Error("sampled verification never fired within 8 loads")
		return nil
	})
}

func TestVerifyVarAndMetrics(t *testing.T) {
	verifySingle(t, core.VerifyFull, func(p *core.PMEM) error {
		if err := storeRect(p, "A", 256); err != nil {
			return err
		}
		if err := p.VerifyVar("A"); err != nil {
			return err
		}
		if _, _, err := p.InjectCorruption("A", 0, 40, 1, 0x04); err != nil {
			return err
		}
		if err := p.VerifyVar("A"); !errors.Is(err, core.ErrCorrupt) {
			t.Errorf("VerifyVar on damaged block = %v, want ErrCorrupt", err)
		}
		snap := p.Metrics()
		if got := snap.Get("pmemcpy_verified_blocks_total"); got < 2 {
			t.Errorf("pmemcpy_verified_blocks_total = %d, want >= 2", got)
		}
		if got := snap.Get("pmemcpy_verify_failures_total"); got != 1 {
			t.Errorf("pmemcpy_verify_failures_total = %d, want 1", got)
		}
		return nil
	})
}

// TestParallelStoreCRCsVerify pins the concurrent checksum paths: sharded
// block stores (per-shard CRCs) and chunked datum stores (Combine-folded
// worker CRCs) must both publish CRCs that a full sweep accepts.
func TestParallelStoreCRCsVerify(t *testing.T) {
	n := newNode()
	_, err := mpi.Run(n.Machine, 1, func(c *mpi.Comm) error {
		p, err := core.Mmap(c, n, "/par.pool", core.WithParallelism(4))
		if err != nil {
			return err
		}
		const elems = 1 << 16
		if err := storeRect(p, "big", elems); err != nil {
			return err
		}
		big := make([]float64, elems)
		for i := range big {
			big[i] = float64(i)
		}
		if err := p.StoreDatum("bigval", &serial.Datum{Type: serial.Float64, Dims: []uint64{elems}, Payload: bytesview.Bytes(big)}); err != nil {
			return err
		}
		rep, err := p.DeepCheck()
		if err != nil {
			return err
		}
		if !rep.OK() {
			t.Errorf("DeepCheck after parallel stores: %s", rep.Summary())
		}
		if err := p.VerifyVar("big"); err != nil {
			t.Errorf("VerifyVar(big) after sharded store: %v", err)
		}
		if err := p.VerifyVar("bigval"); err != nil {
			t.Errorf("VerifyVar(bigval) after chunked store: %v", err)
		}
		return p.Munmap()
	})
	if err != nil {
		t.Fatal(err)
	}
}

// scrubStore builds a deterministic multi-var store and returns the node.
func scrubStore(t *testing.T, path string, opts ...core.MmapOption) *node.Node {
	t.Helper()
	n := newNode()
	_, err := mpi.Run(n.Machine, 1, func(c *mpi.Comm) error {
		p, err := core.Mmap(c, n, path, opts...)
		if err != nil {
			return err
		}
		for _, id := range []string{"A", "B", "C"} {
			if err := storeRect(p, id, 512); err != nil {
				return err
			}
		}
		return p.Munmap()
	})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestScrubDeterministic pins the sweep: two identical stores scrub to
// byte-identical reports — same vars, blocks, bytes, and virtual elapsed.
func TestScrubDeterministic(t *testing.T) {
	run := func() core.ScrubReport {
		n := scrubStore(t, "/scrub.pool")
		var rep core.ScrubReport
		_, err := mpi.Run(n.Machine, 1, func(c *mpi.Comm) error {
			p, err := core.Mmap(c, n, "/scrub.pool")
			if err != nil {
				return err
			}
			rep, err = p.Scrub(context.Background())
			if err != nil {
				return err
			}
			return p.Munmap()
		})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Errorf("scrub reports differ:\n  %s\n  %s", a, b)
	}
	if a.Blocks == 0 || a.Corruptions != 0 {
		t.Errorf("unexpected report on a clean store: %s", a)
	}
}

// TestScrubRateLimit pins the pacer: with a rate limit far below the device's
// throughput, a pass must take Bytes/rate virtual seconds within 1%.
func TestScrubRateLimit(t *testing.T) {
	const rate = 1 << 20 // 1 MiB per virtual second
	n := scrubStore(t, "/paced.pool")
	_, err := mpi.Run(n.Machine, 1, func(c *mpi.Comm) error {
		p, err := core.Mmap(c, n, "/paced.pool", core.WithScrubber(rate))
		if err != nil {
			return err
		}
		rep, err := p.Scrub(context.Background())
		if err != nil {
			return err
		}
		target := time.Duration(float64(rep.Bytes) / rate * float64(time.Second))
		if rep.Elapsed < target {
			t.Errorf("paced scrub finished in %v, rate limit requires >= %v", rep.Elapsed, target)
		}
		if limit := target + target/100; rep.Elapsed > limit {
			t.Errorf("paced scrub took %v, want <= %v (target +1%%)", rep.Elapsed, limit)
		}
		return p.Munmap()
	})
	if err != nil {
		t.Fatal(err)
	}
}

// countdownCtx reports context.Canceled from its n-th Err call on.
type countdownCtx struct {
	context.Context
	left int
}

func (c *countdownCtx) Err() error {
	if c.left--; c.left <= 0 {
		return context.Canceled
	}
	return nil
}

// TestScrubCancelBetweenBlocks pins Scrub's contract for a cancel that lands
// inside a many-block variable: the pass stops before the next block, and the
// partial report counts exactly the blocks it finished — corrupt ones
// included — and the virtual time they cost.
func TestScrubCancelBetweenBlocks(t *testing.T) {
	const blocks, elems, swept = 8, 64, 3
	n := newNode()
	_, err := mpi.Run(n.Machine, 1, func(c *mpi.Comm) error {
		p, err := core.Mmap(c, n, "/cancel-mid.pool", core.WithCodec("raw"))
		if err != nil {
			return err
		}
		if err := p.Alloc("M", serial.Float64, []uint64{blocks * elems}); err != nil {
			return err
		}
		for b := uint64(0); b < blocks; b++ {
			if err := p.StoreBlock("M", []uint64{b * elems}, []uint64{elems}, make([]byte, elems*8)); err != nil {
				return err
			}
		}
		if _, _, err := p.InjectCorruption("M", 1, 0, 1, 0x01); err != nil {
			return err
		}
		full, err := p.DeepCheck()
		if err != nil {
			return err
		}
		// Scrub polls once per id, then once per block: the cancel arrives at
		// the poll before block `swept`.
		rep, err := p.Scrub(&countdownCtx{Context: context.Background(), left: 1 + swept + 1})
		if !errors.Is(err, context.Canceled) {
			t.Errorf("Scrub = %v, want context.Canceled", err)
		}
		if want := full.Bytes / blocks * swept; rep.Blocks != swept || rep.Bytes != want {
			t.Errorf("canceled pass reported %d blocks / %d bytes, want %d / %d", rep.Blocks, rep.Bytes, swept, want)
		}
		if rep.Corruptions != 1 {
			t.Errorf("canceled pass reported %d corruptions, want the 1 among the blocks it swept", rep.Corruptions)
		}
		if rep.Elapsed <= 0 {
			t.Errorf("canceled pass reported no elapsed virtual time")
		}
		// A later pass finishes the job.
		rep, err = p.Scrub(context.Background())
		if err != nil {
			return err
		}
		if rep.Blocks != blocks || rep.Quarantined != 1 {
			t.Errorf("follow-up pass: %d blocks, %d quarantined, want %d and 1", rep.Blocks, rep.Quarantined, blocks)
		}
		return p.Munmap()
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestScrubCancellation(t *testing.T) {
	n := scrubStore(t, "/cancel.pool")
	_, err := mpi.Run(n.Machine, 1, func(c *mpi.Comm) error {
		p, err := core.Mmap(c, n, "/cancel.pool")
		if err != nil {
			return err
		}
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if _, err := p.Scrub(ctx); !errors.Is(err, context.Canceled) {
			t.Errorf("Scrub with canceled ctx = %v, want context.Canceled", err)
		}
		return p.Munmap()
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestQuarantinePersistsAcrossReopen is the containment contract: a scrub
// finds damage and quarantines it; after closing and reopening the store the
// quarantine still holds, reads still fail fast with ErrCorrupt, and the
// quarantine gauge reflects it — no re-scrub needed.
func TestQuarantinePersistsAcrossReopen(t *testing.T) {
	n := scrubStore(t, "/quar.pool")
	_, err := mpi.Run(n.Machine, 1, func(c *mpi.Comm) error {
		p, err := core.Mmap(c, n, "/quar.pool")
		if err != nil {
			return err
		}
		if _, _, err := p.InjectCorruption("B", 0, 64, 2, 0xff); err != nil {
			return err
		}
		rep, err := p.Scrub(context.Background())
		if err != nil {
			return err
		}
		if rep.Corruptions != 1 || rep.Quarantined != 1 {
			t.Errorf("scrub of damaged store: %s, want 1 corruption quarantined", rep)
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
		if err := loadRect(p, "B", 512); !errors.Is(err, core.ErrCorrupt) {
			t.Errorf("read of quarantined block after reopen = %v, want ErrCorrupt", err)
		}
		// A second scrub skips the quarantined block instead of re-counting it.
		rep, err := p.Scrub(context.Background())
		if err != nil {
			return err
		}
		if rep.Corruptions != 0 || rep.Quarantined != 0 {
			t.Errorf("re-scrub: %s, want quarantined block skipped", rep)
		}
		if got := p.Metrics().Get("pmemcpy_quarantined_blocks"); got != 1 {
			t.Errorf("pmemcpy_quarantined_blocks = %d, want 1", got)
		}
		// Deleting the variable frees its blocks and clears their quarantine
		// entries — the allocator may hand the same PMID to healthy data.
		if _, err := p.Delete("B"); err != nil {
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

// TestQuarantineKeyHiddenFromSweeps pins that the reserved "#quarantine" key
// never shows up as scrubbable or deep-checkable user data.
func TestQuarantineKeyHiddenFromSweeps(t *testing.T) {
	n := scrubStore(t, "/hidden.pool")
	_, err := mpi.Run(n.Machine, 1, func(c *mpi.Comm) error {
		p, err := core.Mmap(c, n, "/hidden.pool")
		if err != nil {
			return err
		}
		if _, _, err := p.InjectCorruption("C", 0, 8, 1, 0x01); err != nil {
			return err
		}
		if _, err := p.Scrub(context.Background()); err != nil {
			return err
		}
		before, err := p.Scrub(context.Background())
		if err != nil {
			return err
		}
		if before.Vars != 3 {
			t.Errorf("scrub swept %d vars, want 3 (quarantine key excluded)", before.Vars)
		}
		rep, err := p.DeepCheck()
		if err != nil {
			return err
		}
		for _, c := range rep.Corrupt {
			if c.ID == "#quarantine" {
				t.Errorf("deep check surfaced the reserved quarantine key: %s", c)
			}
		}
		return p.Munmap()
	})
	if err != nil {
		t.Fatal(err)
	}
}
