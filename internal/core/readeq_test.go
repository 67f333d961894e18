package core_test

// Read-path equivalence suite for the unified read engine (readplan.go), the
// mirror of writeeq_test.go: the serial load, the parallel configuration at
// one and at four workers, the async pipeline at a one-op window, and the
// leased view are different planners over the SAME engine, so identical
// requests must return identical bytes, charge the virtual clock identically
// (a zero-copy view exactly one device read latency instead, and a
// worker-pool gather its striped cost), and consume exactly one verification
// sampling tick per op — across codecs, pool counts, and verify modes.
//
// The failure-contract test pins what every consume step shares: a
// quarantined or CRC-failing block surfaces ErrCorrupt before a single byte
// reaches the caller, no read issues a persist (an armed media fault is left
// for the next write, which propagates it), and the handle keeps working.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"pmemcpy/internal/core"
	"pmemcpy/internal/mpi"
	"pmemcpy/internal/node"
	"pmemcpy/internal/serial"
	"pmemcpy/internal/sim"
)

// readReq is one request of the canonical read script.
type readReq struct {
	id           string
	offs, counts []uint64
	esize        int
	zeroCopy     bool // aliasable geometry: one block, contiguous sub-range
}

const reqBigElems = 1 << 16 // 512 KB of float64: past the worker pool's 256 KB floor

// reqScript covers every planner shape: a whole block, a contiguous sub-range
// of one block, a two-block span, a strided selection, an array of
// overlapping (shadowing) blocks, and a large disjoint multi-block gather.
var reqScript = []readReq{
	{"X", []uint64{0, 0}, []uint64{32, 16}, 8, true},
	{"X", []uint64{8, 0}, []uint64{16, 16}, 8, true},
	{"X", []uint64{16, 0}, []uint64{32, 16}, 8, false},
	{"X", []uint64{0, 4}, []uint64{64, 8}, 8, false},
	{"Y", []uint64{0, 0}, []uint64{8, 8}, 4, false},
	{"BIG", []uint64{0}, []uint64{reqBigElems}, 8, false},
}

func (r readReq) size() int {
	n := r.esize
	for _, c := range r.counts {
		n *= int(c)
	}
	return n
}

// reqStore writes the dataset the script reads. BIG is stored with four copy
// workers so it lands as four disjoint shards — striped over the member pools
// on a sharded namespace.
func reqStore(t *testing.T, n *node.Node, layout core.Layout, codec string, pools int) {
	t.Helper()
	opts := &core.Options{Layout: layout, Codec: codec, Parallelism: 4}
	_, err := mpi.Run(n.Machine, 1, func(c *mpi.Comm) error {
		p, err := core.Mmap(c, n, "/req.pool", core.OptionsArg(opts))
		if err != nil {
			return err
		}
		if err := p.Alloc("X", serial.Float64, []uint64{64, 16}); err != nil {
			return err
		}
		for r := uint64(0); r < 64; r += 32 {
			if err := p.StoreBlock("X", []uint64{r, 0}, []uint64{32, 16}, eqPattern(32*16*8, byte(r))); err != nil {
				return err
			}
		}
		if err := p.Alloc("Y", serial.Int32, []uint64{8, 8}); err != nil {
			return err
		}
		for _, rows := range [][2]uint64{{0, 4}, {4, 8}, {2, 6}} {
			data := eqPattern(int(rows[1]-rows[0])*8*4, byte(rows[0]))
			if err := p.StoreBlock("Y", []uint64{rows[0], 0}, []uint64{rows[1] - rows[0], 8}, data); err != nil {
				return err
			}
		}
		if err := p.Alloc("BIG", serial.Float64, []uint64{reqBigElems}); err != nil {
			return err
		}
		if err := p.StoreBlock("BIG", []uint64{0}, []uint64{reqBigElems}, eqPattern(reqBigElems*8, 5)); err != nil {
			return err
		}
		return p.Munmap()
	})
	if err != nil {
		t.Fatal(err)
	}
}

// reqResult is what one mode observed for one request of the measured pass.
type reqResult struct {
	data     []byte
	virt     time.Duration
	zeroCopy bool
}

// reqRun reopens the stored dataset in the given mode and runs the script
// twice on one handle: a warm-up pass (so the measured pass plans against a
// warm block index in every mode) and the measured pass. It returns the
// measured results plus the handle's verified-block and worker-pool counters.
func reqRun(t *testing.T, n *node.Node, layout core.Layout, codec string, pools int, verify core.VerifyMode, mode string) ([]reqResult, int64, int64) {
	t.Helper()
	opts := &core.Options{Layout: layout, Codec: codec, VerifyReads: verify}
	switch mode {
	case "par1":
		opts.ReadParallelism = 1
	case "par4":
		opts.ReadParallelism = 4
	case "async":
		opts.Async = true
		opts.CoalesceWindow = 1
	}
	out := make([]reqResult, len(reqScript))
	var verified, parallelReads int64
	_, err := mpi.Run(n.Machine, 1, func(c *mpi.Comm) error {
		p, err := core.Mmap(c, n, "/req.pool", core.OptionsArg(opts))
		if err != nil {
			return err
		}
		ctx := context.Background()
		for pass := 0; pass < 2; pass++ {
			for i, r := range reqScript {
				res := reqResult{data: make([]byte, r.size())}
				t0 := c.Clock().Now()
				switch mode {
				case "async":
					fut := p.LoadBlockAsync(r.id, r.offs, r.counts, res.data)
					if err := p.Flush(ctx); err != nil {
						return err
					}
					err = fut.Wait(ctx)
				case "view":
					var v *core.BlockView
					if v, err = p.LoadBlockView(r.id, r.offs, r.counts); err == nil {
						var b []byte
						if b, err = v.Bytes(); err == nil {
							copy(res.data, b)
							res.zeroCopy = v.ZeroCopy()
							res.virt = c.Clock().Now() - t0 // before Close: the open is the op
							err = v.Close()
						}
					}
				default:
					err = p.LoadBlock(r.id, r.offs, r.counts, res.data)
				}
				if err != nil {
					return fmt.Errorf("pass %d request %d: %w", pass, i, err)
				}
				if mode != "view" {
					res.virt = c.Clock().Now() - t0
				}
				out[i] = res
			}
		}
		verified = p.Metrics().Get("pmemcpy_verified_blocks_total")
		parallelReads = parallelOps(p, "load_")
		return p.Munmap()
	})
	if err != nil {
		t.Fatalf("%s: %v", mode, err)
	}
	return out, verified, parallelReads
}

// TestReadPathEquivalence pins the engine contract across every read planner.
// The hierarchy layout joins the same engine with nothing to verify against —
// its records carry no published CRC — so there a handle's verify mode must
// change nothing at all: no block verified, no view aliased, no worker wave.
func TestReadPathEquivalence(t *testing.T) {
	latency := sim.DefaultConfig().PMEMReadLatency
	type config struct {
		layout core.Layout
		pools  int
	}
	configs := []config{{core.LayoutHashtable, 1}, {core.LayoutHashtable, 4}, {core.LayoutHierarchy, 1}}
	for _, codec := range []string{"bp4", "raw"} {
		for _, cfg := range configs {
			layout, pools := cfg.layout, cfg.pools
			hier := layout == core.LayoutHierarchy
			n := eqNode(pools)
			reqStore(t, n, layout, codec, pools)
			for _, verify := range []core.VerifyMode{core.VerifyOff, core.VerifySampled, core.VerifyFull} {
				t.Run(fmt.Sprintf("%s/layout=%d/pools=%d/verify=%v", codec, layout, pools, verify), func(t *testing.T) {
					base, baseVerified, basePar := reqRun(t, n, layout, codec, pools, verify, "serial")
					if basePar != 0 {
						t.Errorf("serial mode ran %d worker-pool gathers", basePar)
					}
					// The script is 2x6 ops and the sampling stride is 8, so a
					// sampled handle verifies exactly one op — the measured
					// pass's second request, a single-block read — if and only
					// if every op consumed exactly one tick.
					if verify == core.VerifySampled && !hier && baseVerified != 1 {
						t.Errorf("serial: sampled run verified %d blocks, want exactly 1", baseVerified)
					}
					if (verify == core.VerifyOff || hier) && baseVerified != 0 {
						t.Errorf("serial: verify=%v layout=%d run verified %d blocks", verify, layout, baseVerified)
					}
					for _, mode := range []string{"par1", "par4", "async", "view"} {
						got, verified, par := reqRun(t, n, layout, codec, pools, verify, mode)
						if verified != baseVerified {
							t.Errorf("%s verified %d blocks, serial verified %d (one sampling tick per op)",
								mode, verified, baseVerified)
						}
						// Only the four-worker handle may use the worker pool,
						// and only for the one large disjoint request of each
						// pass (the fallback of a view included).
						wantPar := int64(0)
						if mode == "par4" && !hier {
							wantPar = 2
						}
						if par != wantPar {
							t.Errorf("%s ran %d worker-pool gathers, want %d", mode, par, wantPar)
						}
						for i, r := range reqScript {
							if !bytes.Equal(got[i].data, base[i].data) {
								t.Errorf("%s request %d: bytes differ from serial", mode, i)
							}
							sampledOp := verify == core.VerifySampled && i == 1
							wantZero := mode == "view" && codec == "raw" && r.zeroCopy && !hier &&
								verify != core.VerifyFull && !sampledOp
							if got[i].zeroCopy != wantZero {
								t.Errorf("%s request %d: zero-copy = %v, want %v", mode, i, got[i].zeroCopy, wantZero)
							}
							switch {
							case got[i].zeroCopy:
								if got[i].virt != latency {
									t.Errorf("%s request %d: zero-copy open charged %v, want one read latency (%v)",
										mode, i, got[i].virt, latency)
								}
							case wantPar > 0 && r.id == "BIG":
								if got[i].virt >= base[i].virt {
									t.Errorf("%s request %d: striped gather charged %v, serial %v", mode, i, got[i].virt, base[i].virt)
								}
							case got[i].virt != base[i].virt:
								t.Errorf("%s request %d: charged %v, serial charged %v", mode, i, got[i].virt, base[i].virt)
							}
						}
					}
				})
			}
		}
	}
}

// failKind is one consume step of the read engine as the API reaches it.
// read performs it on the array "A" or a whole value — "S", which lives in its
// record, or "L", which lives in a block — and reports whether any byte (or
// object) reached the caller.
type failKind struct {
	name string
	read func(p *core.PMEM) (delivered bool, err error)
}

const failElems = 256

var failSentinel = bytes.Repeat([]byte{0xEE}, failElems*8)

func failScatter(load func(p *core.PMEM, dst []byte) error) func(p *core.PMEM) (bool, error) {
	return func(p *core.PMEM) (bool, error) {
		dst := append([]byte(nil), failSentinel...)
		err := load(p, dst)
		return !bytes.Equal(dst, failSentinel), err
	}
}

var failKinds = []failKind{
	{"scatter/LoadBlock", failScatter(func(p *core.PMEM, dst []byte) error {
		return p.LoadBlock("A", []uint64{0}, []uint64{failElems}, dst)
	})},
	{"scatter/LoadBlockAsync", failScatter(func(p *core.PMEM, dst []byte) error {
		return p.LoadBlockAsync("A", []uint64{0}, []uint64{failElems}, dst).Wait(context.Background())
	})},
	{"alias/LoadBlockView", func(p *core.PMEM) (bool, error) {
		v, err := p.LoadBlockView("A", []uint64{0}, []uint64{failElems})
		if v != nil {
			_ = v.Close()
		}
		return v != nil, err
	}},
	{"clone/LoadDatum/inline", func(p *core.PMEM) (bool, error) {
		d, err := p.LoadDatum("S")
		return d != nil, err
	}},
	{"clone/LoadDatum/value ref", func(p *core.PMEM) (bool, error) {
		d, err := p.LoadDatum("L")
		return d != nil, err
	}},
	{"stats/MinMax", func(p *core.PMEM) (bool, error) {
		mn, mx, err := p.MinMax("A")
		return mn != 0 || mx != 0, err
	}},
	{"crc/VerifyVar", func(p *core.PMEM) (bool, error) {
		return false, p.VerifyVar("A")
	}},
}

// failOpen runs fn on the failure-contract store, creating and populating it
// on first use: the targets "A", "S" and "L", and an untouched pair "G"/"GS"
// that proves the handle usable after every failure.
func failOpen(t *testing.T, n *node.Node, codec string, verify core.VerifyMode, fn func(p *core.PMEM) error) {
	t.Helper()
	_, err := mpi.Run(n.Machine, 1, func(c *mpi.Comm) error {
		p, err := core.Mmap(c, n, "/fail.pool", core.WithCodec(codec), core.WithVerifyReads(verify))
		if err != nil {
			return err
		}
		if _, _, derr := p.LoadDims("A"); errors.Is(derr, core.ErrNotFound) {
			for _, id := range []string{"A", "G"} {
				if err := storeRect(p, id, failElems); err != nil {
					return err
				}
			}
			for _, id := range []string{"S", "GS"} {
				if err := p.StoreString(id, "one read engine"); err != nil {
					return err
				}
			}
			if err := p.StoreString("L", strings.Repeat("too long to live in a record ", 8)); err != nil {
				return err
			}
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

func failUsable(p *core.PMEM) error {
	if err := loadRect(p, "G", failElems); err != nil {
		return fmt.Errorf("healthy array after failure: %w", err)
	}
	if s, err := p.LoadString("GS"); err != nil || s != "one read engine" {
		return fmt.Errorf("healthy value after failure = %q, %v", s, err)
	}
	return nil
}

// TestReadFailureContract runs every consume step against the three ways a
// read can go wrong and requires the same contract from all of them.
func TestReadFailureContract(t *testing.T) {
	for _, codec := range []string{"bp4", "raw"} {
		t.Run(codec, func(t *testing.T) {
			n := newNode()
			expectCorrupt := func(stage string) func(p *core.PMEM) error {
				return func(p *core.PMEM) error {
					for _, k := range failKinds {
						delivered, err := k.read(p)
						if !errors.Is(err, core.ErrCorrupt) {
							t.Errorf("%s: %s = %v, want ErrCorrupt", stage, k.name, err)
						}
						if delivered {
							t.Errorf("%s: %s delivered bytes alongside its error", stage, k.name)
						}
						if err := failUsable(p); err != nil {
							t.Errorf("%s: after %s: %v", stage, k.name, err)
						}
					}
					return nil
				}
			}

			// 1. No persist on any read: with an uncorrectable media fault
			// armed at the next persist, every kind still succeeds and leaves
			// the fault armed; the next write propagates it as ErrMedia, and
			// the handle survives that too.
			failOpen(t, n, codec, core.VerifyFull, func(p *core.PMEM) error {
				n.Device.InjectTransient(0, 4)
				defer n.Device.DisarmInjection()
				for _, k := range failKinds {
					if _, err := k.read(p); err != nil {
						t.Errorf("armed media fault: %s = %v, want success (reads do not persist)", k.name, err)
					}
				}
				if got := n.Device.MediaFailures(); got != 0 {
					t.Errorf("reads consumed the armed fault: %d media failures", got)
				}
				if err := p.StoreString("W", "x"); !errors.Is(err, core.ErrMedia) {
					t.Errorf("store after armed fault = %v, want ErrMedia", err)
				}
				return failUsable(p)
			})

			// 2. CRC mismatch under full verification.
			failOpen(t, n, codec, core.VerifyFull, func(p *core.PMEM) error {
				if _, _, err := p.InjectCorruption("A", 0, 100, 1, 0x10); err != nil {
					return err
				}
				for _, id := range []string{"S", "L"} {
					if _, _, err := p.InjectCorruption(id, -1, 3, 1, 0x10); err != nil {
						return err
					}
				}
				if err := expectCorrupt("crc mismatch")(p); err != nil {
					return err
				}
				// Quarantine all three blocks for the next stage.
				rep, err := p.Scrub(context.Background())
				if err == nil && rep.Quarantined != 3 {
					err = fmt.Errorf("scrub quarantined %d blocks, want 3", rep.Quarantined)
				}
				return err
			})

			// 3. Quarantined, verification off: only the gate can refuse.
			failOpen(t, n, codec, core.VerifyOff, expectCorrupt("quarantined"))
		})
	}
}
