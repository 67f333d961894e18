package core

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"pmemcpy/internal/fsck"
	"pmemcpy/internal/mpi"
	"pmemcpy/internal/node"
	"pmemcpy/internal/pmem"
	"pmemcpy/internal/sim"
)

// Crash-point explorer. Hand-picked kill points sample a handful of persist
// orderings; the explorer enumerates all of them. It first records the exact
// persist trace of a scripted workload, then for every persist operation in
// the trace runs an independent crash simulation: rebuild the store, replay
// the script, kill the device at exactly that persist (clean or torn, under
// each configured cache-loss adversary), simulate power loss,
// and verify the reopened pool — pmemfsck structural invariants, core
// metadata invariants, and the script's own data verification. The result is
// a coverage map keyed by persist-point name with zero unexplored points, the
// systematic exploration Persistent Memory Transactions (Marathe et al.)
// argues ad-hoc crash tests cannot provide.
//
// Determinism: every simulation runs a fresh node with machine concurrency 1,
// both write engines persist only from the coordinator goroutine in publish
// order, and torn-line selection is seeded — so persist ordinal k names the
// same protocol step in every replay, and a failed simulation reproduces
// stand-alone.

// Script is a workload the explorer can replay arbitrarily many times.
// Setup runs before fault injection is armed (its persists are not crash
// candidates); Run is the window under test; Verify is called on a reopened
// handle after each simulated crash and must accept every recoverable state
// (typically: each variable holds uniformly old or uniformly new data).
type Script struct {
	// Name labels the script in reports.
	Name string
	// DevSize is the simulated device size (default 32 MiB).
	DevSize int64
	// Path is the pool path (default "/explore.pool").
	Path string
	// Options configures the store (nil = defaults).
	Options *Options
	// Setup prepares the store (not under injection). Optional.
	Setup func(p *PMEM) error
	// Run is the workload under test. Required.
	Run func(p *PMEM) error
	// Verify checks a reopened store after a crash anywhere in Run. Optional.
	Verify func(p *PMEM) error
	// VerifyDone checks the store after an uninjected, complete Run — the
	// sanity pass that the script's expectations hold at all. Optional.
	VerifyDone func(p *PMEM) error
}

// ExploreOptions configures an exploration.
type ExploreOptions struct {
	// Modes are the cache-loss adversaries applied at every crash point
	// (default: CrashLoseAll and CrashRandom).
	Modes []pmem.CrashMode
	// Tear adds a torn-store variant at every crash point: the killed
	// persist flushes a seed-chosen subset of its cachelines first.
	Tear bool
	// Seed drives CrashRandom and the torn-line selection (default 1).
	Seed int64
	// Logf receives progress lines. Optional.
	Logf func(format string, args ...any)
}

// PointCoverage is one persist point's row in the coverage map.
type PointCoverage struct {
	// Name is the registered persist-point name.
	Name string
	// Hits is how many trace events carried this point.
	Hits int64
	// Crashes is how many crash simulations were run at this point.
	Crashes int64
}

// ExploreReport is the result of one exploration.
type ExploreReport struct {
	Script string
	// Ops is the number of injectable persist operations in the trace.
	Ops int64
	// CrashSims is the total number of crash simulations executed.
	CrashSims int64
	// Points is the coverage map, sorted by point name.
	Points []PointCoverage
	// Failures lists every simulation whose recovery verification failed.
	Failures []string
	// Detected counts simulations where the integrity layer surfaced
	// corruption in the recovered state — ErrCorrupt from the script's
	// verification (run under VerifyFull) or a dirty deep check — i.e.
	// corruption that was caught and contained rather than silently
	// returned. Detected simulations are not Failures.
	Detected int64
	// Escapes lists simulations where the recovered data failed the
	// script's verification with plain wrong values while every published
	// CRC checked out: silent-corruption escapes, the exact failure mode
	// the integrity layer exists to eliminate. Always a subset of Failures.
	Escapes []string
}

// Unexplored returns the names of persist points that were reached by the
// workload but never crash-tested. A complete exploration returns none.
func (r *ExploreReport) Unexplored() []string {
	var out []string
	for _, pc := range r.Points {
		if pc.Hits > 0 && pc.Crashes == 0 {
			out = append(out, pc.Name)
		}
	}
	return out
}

// Format renders the coverage map.
func (r *ExploreReport) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "crash-point coverage for %q: %d persist ops, %d crash sims, %d failures, %d detected, %d silent escapes\n",
		r.Script, r.Ops, r.CrashSims, len(r.Failures), r.Detected, len(r.Escapes))
	w := 0
	for _, pc := range r.Points {
		if len(pc.Name) > w {
			w = len(pc.Name)
		}
	}
	for _, pc := range r.Points {
		fmt.Fprintf(&b, "  %-*s  hits=%-4d crashes=%d\n", w, pc.Name, pc.Hits, pc.Crashes)
	}
	if un := r.Unexplored(); len(un) > 0 {
		fmt.Fprintf(&b, "  UNEXPLORED: %s\n", strings.Join(un, ", "))
	}
	for _, f := range r.Failures {
		fmt.Fprintf(&b, "  FAIL: %s\n", f)
	}
	return b.String()
}

func (s *Script) defaults() {
	if s.DevSize == 0 {
		s.DevSize = 32 << 20
	}
	if s.Path == "" {
		s.Path = "/explore.pool"
	}
	if s.Name == "" {
		s.Name = "script"
	}
}

// mmapOpts adapts the script's optional *Options into Mmap's functional-
// option surface (extra options compose after it).
func (s *Script) mmapOpts(extra ...MmapOption) []MmapOption {
	var opts []MmapOption
	if s.Options != nil {
		opts = append(opts, optionsOption(*s.Options))
	}
	return append(opts, extra...)
}

// newNode builds the deterministic simulation node every pass runs on: one
// device per member pool of the script's namespace. They share one fault
// domain, so persist ordinals, tracing, and armed crashes span every pool in
// one coherent sequence.
func (s *Script) newNode() *node.Node {
	opts := []node.Option{node.WithDeviceOptions(pmem.WithCrashTracking())}
	if s.Options != nil {
		opts = append(opts, node.WithPMEMPools(s.Options.Pools))
	}
	n := node.New(sim.DefaultConfig(), s.DevSize, opts...)
	n.Machine.SetConcurrency(1)
	return n
}

// rawMaps maps the pool file at path on every device of n, with no pool
// opened on top — what the pmemfsck CLI starts from.
func rawMaps(n *node.Node, path string) ([]*pmem.Mapping, error) {
	clk := new(sim.Clock)
	maps := make([]*pmem.Mapping, n.Pools())
	for i := range maps {
		f, err := n.FSAt(i).Open(clk, path)
		if err != nil {
			return nil, fmt.Errorf("reopening pool file %d: %w", i, err)
		}
		if maps[i], err = f.Mmap(clk, false); err != nil {
			return nil, err
		}
	}
	return maps, nil
}

// checkStructure runs the structural checker on raw mappings of the pool
// file(s), exactly as the pmemfsck CLI would: fsck.CheckSet's publish record,
// member descriptors, then every member pool.
func (s *Script) checkStructure(n *node.Node) error {
	maps, err := rawMaps(n, s.Path)
	if err != nil {
		return err
	}
	rep, err := fsck.CheckSet(new(sim.Clock), maps)
	if err != nil {
		return fmt.Errorf("fsck: %w", err)
	}
	if !rep.OK() {
		return fmt.Errorf("fsck: %s", rep.Summary())
	}
	return nil
}

// TraceScript runs the script once with tracing enabled (no faults) and
// returns the persist trace of its Run phase. Also used stand-alone by
// the golden coverage test, which needs the reached points but not the full
// (much more expensive) exploration.
func TraceScript(s Script) ([]pmem.TraceEvent, error) {
	s.defaults()
	n := s.newNode()
	var events []pmem.TraceEvent
	_, err := mpi.Run(n.Machine, 1, func(c *mpi.Comm) error {
		p, err := Mmap(c, n, s.Path, s.mmapOpts()...)
		if err != nil {
			return err
		}
		if s.Setup != nil {
			if err := s.Setup(p); err != nil {
				return fmt.Errorf("setup: %w", err)
			}
		}
		n.Device.StartTrace()
		if err := s.Run(p); err != nil {
			return fmt.Errorf("uninjected run: %w", err)
		}
		events = n.Device.StopTrace()
		// Sanity: the script's own verifiers must accept the completed state,
		// otherwise every crash sim would fail for reasons unrelated to
		// crashes.
		if vs := p.VerifyStore(); len(vs) > 0 {
			return fmt.Errorf("uninjected run leaves violations: %s", strings.Join(vs, "; "))
		}
		if deep, err := p.DeepCheck(); err != nil {
			return fmt.Errorf("uninjected deep check: %w", err)
		} else if !deep.OK() {
			return fmt.Errorf("uninjected run leaves corrupt blocks: %s", deep.Summary())
		}
		if s.Verify != nil {
			if err := s.Verify(p); err != nil {
				return fmt.Errorf("verify after complete run: %w", err)
			}
		}
		if s.VerifyDone != nil {
			if err := s.VerifyDone(p); err != nil {
				return fmt.Errorf("verify-done after complete run: %w", err)
			}
		}
		return nil
	})
	return events, err
}

// simOutcome classifies one crash simulation's integrity result.
type simOutcome struct {
	// detected: corruption was present in the recovered state and the
	// integrity layer caught it (ErrCorrupt or a dirty deep check).
	detected bool
	// escape: the script's verification saw wrong values while every
	// published CRC checked out — a silent-corruption escape.
	escape bool
}

// crashSim runs one simulation: replay the script, kill the device at persist
// ordinal op (tearing the in-flight store when tearSeed != 0), crash with the
// given adversary, then check the reopened pool: fsck invariants, a CRC deep
// check over every published block, core metadata invariants, and the
// script's Verify under full read verification.
func (s *Script) crashSim(op int64, mode pmem.CrashMode, tearSeed uint64, rng *rand.Rand) (simOutcome, error) {
	var out simOutcome
	n := s.newNode()
	_, err := mpi.Run(n.Machine, 1, func(c *mpi.Comm) error {
		p, err := Mmap(c, n, s.Path, s.mmapOpts()...)
		if err != nil {
			return err
		}
		if s.Setup != nil {
			if err := s.Setup(p); err != nil {
				return fmt.Errorf("setup: %w", err)
			}
		}
		n.Device.ArmCrashAtOp(op, tearSeed)
		rerr := s.Run(p)
		if rerr == nil {
			return fmt.Errorf("run completed without reaching armed persist %d", op)
		}
		if !errors.Is(rerr, pmem.ErrFailed) {
			return fmt.Errorf("run failed with %w, want the injected device failure", rerr)
		}
		return nil
	})
	if err != nil {
		return out, err
	}
	n.CrashAll(mode, rng)

	// Power is back. First the structural checker, on raw mappings of the
	// pool file(s), exactly as the pmemfsck CLI would run it.
	if err := s.checkStructure(n); err != nil {
		return out, err
	}

	// Then the full store on a fresh handle group (empty DRAM cache), with a
	// CRC deep check over every published block, the core-level invariants,
	// and the script's own data verification run under full read
	// verification — so a torn block that made it into published state is
	// DETECTED (ErrCorrupt) rather than decoded into silently wrong values.
	_, err = mpi.Run(n.Machine, 1, func(c *mpi.Comm) error {
		p, err := Mmap(c, n, s.Path, s.mmapOpts(WithVerifyReads(VerifyFull))...)
		if err != nil {
			return fmt.Errorf("reopening store: %w", err)
		}
		deep, err := p.DeepCheck()
		if err != nil {
			return fmt.Errorf("deep check: %w", err)
		}
		if !deep.OK() {
			// Corruption in published state, caught by CRC: contained. It is
			// still a crash-atomicity violation (publish must follow the data
			// persist), so it fails the sim — but loudly, never silently.
			out.detected = true
			return fmt.Errorf("deep check: %s", deep.Summary())
		}
		if vs := p.VerifyStore(); len(vs) > 0 {
			return fmt.Errorf("store invariants: %s", strings.Join(vs, "; "))
		}
		if s.Verify != nil {
			if err := s.Verify(p); err != nil {
				if errors.Is(err, ErrCorrupt) {
					out.detected = true
				} else {
					// Wrong values with every CRC clean: the silent escape the
					// integrity layer exists to eliminate.
					out.escape = true
				}
				return fmt.Errorf("data verification: %w", err)
			}
		}
		return nil
	})
	return out, err
}

// Explore enumerates every persist point the script's Run phase reaches and
// crash-tests each one under every configured variant. The returned report's
// Unexplored list is empty iff every reached persist point was simulated.
func Explore(s Script, o ExploreOptions) (*ExploreReport, error) {
	s.defaults()
	modes := o.Modes
	if modes == nil {
		modes = []pmem.CrashMode{pmem.CrashLoseAll, pmem.CrashRandom}
	}
	seed := o.Seed
	if seed == 0 {
		seed = 1
	}
	logf := o.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}

	events, err := TraceScript(s)
	if err != nil {
		return nil, fmt.Errorf("explore %q: trace pass: %w", s.Name, err)
	}

	tally := make(map[pmem.PointID]*PointCoverage)
	cover := func(pt pmem.PointID) *PointCoverage {
		pc := tally[pt]
		if pc == nil {
			pc = &PointCoverage{Name: pmem.PointName(pt)}
			tally[pt] = pc
		}
		return pc
	}
	rep := &ExploreReport{Script: s.Name, Ops: int64(len(events))}
	for _, ev := range events {
		cover(ev.Point).Hits++
	}

	type variant struct {
		name string
		mode pmem.CrashMode
		tear bool
	}
	variants := make([]variant, 0, len(modes)+1)
	for _, m := range modes {
		variants = append(variants, variant{m.String(), m, false})
	}
	if o.Tear {
		variants = append(variants, variant{"torn", pmem.CrashLoseAll, true})
	}

	rng := rand.New(rand.NewSource(seed))
	logf("exploring %q: %d persist ops x %d variants", s.Name, rep.Ops, len(variants))
	for _, ev := range events {
		for _, v := range variants {
			var tearSeed uint64
			if v.tear {
				// Per-op seed so different crash points tear differently but
				// each reproduces; never 0 (0 disables tearing).
				tearSeed = uint64(seed)<<32 | uint64(ev.Op)<<1 | 1
			}
			out, err := s.crashSim(ev.Op, v.mode, tearSeed, rng)
			if out.detected {
				rep.Detected++
			}
			if err != nil {
				desc := fmt.Sprintf("persist %d (%s) under %s: %v", ev.Op, pmem.PointName(ev.Point), v.name, err)
				rep.Failures = append(rep.Failures, desc)
				if out.escape {
					rep.Escapes = append(rep.Escapes, desc)
				}
			}
			rep.CrashSims++
		}
		cover(ev.Point).Crashes += int64(len(variants))
	}

	for _, pc := range tally {
		rep.Points = append(rep.Points, *pc)
	}
	sort.Slice(rep.Points, func(i, j int) bool { return rep.Points[i].Name < rep.Points[j].Name })
	logf("explored %q: %d sims, %d failures", s.Name, rep.CrashSims, len(rep.Failures))
	return rep, nil
}
