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

func TestVerifyFullLoadDatumSurfacesErrCorrupt(t *testing.T) {
	verifySingle(t, core.VerifyFull, func(p *core.PMEM) error {
		v := []float64{3.14159, 2.71828}
		if err := p.StoreDatum("pi", &serial.Datum{Type: serial.Float64, Dims: []uint64{2}, Payload: bytesview.Bytes(v)}); err != nil {
			return err
		}
		if _, err := p.LoadDatum("pi"); err != nil {
			return err
		}
		if _, _, err := p.InjectCorruption("pi", -1, 3, 1, 0x80); err != nil {
			return err
		}
		_, err := p.LoadDatum("pi")
		if !errors.Is(err, core.ErrCorrupt) {
			t.Errorf("corrupted LoadDatum under VerifyFull = %v, want ErrCorrupt", err)
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
