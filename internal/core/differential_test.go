package core_test

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"pmemcpy/internal/bytesview"
	"pmemcpy/internal/core"
	"pmemcpy/internal/mpi"
	"pmemcpy/internal/node"
	"pmemcpy/internal/serial"
	"pmemcpy/internal/sim"
)

// Differential property test: random operation sequences executed against
// independent backends must agree on every observable — dims, full and
// partial loads byte-for-byte, min/max statistics, and presence — with a
// DRAM reference model as the oracle. Flavor A pits the hashtable layout
// against the hierarchy (posixfs-style) layout; flavor B pits the 4-worker
// sharded copy engines against the serial path; flavor C interleaves silent
// media corruption (single-bit, torn-line, whole-block) with the workload and
// checks the integrity contract — under full verification every read of a
// damaged id either surfaces ErrCorrupt or returns the model's exact bytes,
// never a wrong value. A failing sequence is shrunk to a minimal reproducer
// and logged.

// diffOp is one generated operation. Payload values are embedded at
// generation time so a shrunken subsequence replays the same data.
type diffOp struct {
	kind    string // alloc | store | datum | delete | corrupt
	id      string
	dims    []uint64  // alloc
	offs    []uint64  // store
	counts  []uint64  // store
	vals    []float64 // store payload
	payload []byte    // datum payload
	block   int       // corrupt: block-list index (reduced modulo the live count at replay)
	shape   string    // corrupt: bit | line | block
	coff    int64     // corrupt: byte offset aim (reduced modulo the block length)
	mask    byte      // corrupt: XOR mask
}

func (o diffOp) String() string {
	switch o.kind {
	case "alloc":
		return fmt.Sprintf("alloc %s %v", o.id, o.dims)
	case "store":
		return fmt.Sprintf("store %s offs=%v counts=%v (%d vals, first=%g)",
			o.id, o.offs, o.counts, len(o.vals), o.vals[0])
	case "datum":
		return fmt.Sprintf("datum %s (%d bytes)", o.id, len(o.payload))
	case "corrupt":
		return fmt.Sprintf("corrupt %s block~%d shape=%s off=%d mask=%#02x",
			o.id, o.block, o.shape, o.coff, o.mask)
	default:
		return fmt.Sprintf("%s %s", o.kind, o.id)
	}
}

func fmtOps(ops []diffOp) string {
	var b strings.Builder
	for i, o := range ops {
		fmt.Fprintf(&b, "  %2d: %s\n", i, o)
	}
	return b.String()
}

// --- DRAM reference model ---

// modelBlock mirrors one published block record: its region.
type modelBlock struct {
	offs, counts []uint64
}

type modelArr struct {
	dims []uint64
	data []float64 // visible (latest-wins) contents
	// blocks mirrors the publish-ordered block list of the serial whole-block
	// backend: a store drops every listed block its region contains.
	blocks []modelBlock
	// mn, mx are the running range MinMax answers: every value stored since
	// the last delete, whichever blocks are still listed.
	mn, mx float64
	// valid: the array has full coverage (a full-extent store since the last
	// delete), so loads are defined.
	valid bool
	// dirty: silent corruption was injected into one of this id's stored
	// blocks. Reads may legitimately surface ErrCorrupt (the damage was
	// gathered and caught) or succeed with model-matching bytes (the damage
	// sits in a shadowed block the plan skips) — but never a wrong value.
	// Cleared by delete: the damaged block is freed, and any store after
	// that rebuilds from fresh blocks with fresh CRCs.
	dirty bool
}

type diffModel struct {
	arrs   map[string]*modelArr
	datums map[string][]byte
}

func newDiffModel() *diffModel {
	return &diffModel{arrs: map[string]*modelArr{}, datums: map[string][]byte{}}
}

func dimsSize(dims []uint64) int {
	n := 1
	for _, d := range dims {
		n *= int(d)
	}
	return n
}

func fullExtent(dims, offs, counts []uint64) bool {
	for d := range dims {
		if offs[d] != 0 || counts[d] != dims[d] {
			return false
		}
	}
	return true
}

// forRuns visits the region (offs, counts) of an array with the given dims as
// contiguous innermost-dimension runs: di is the run's start index in the
// array, ri in the region's row-major payload.
func forRuns(dims, offs, counts []uint64, fn func(di, ri, run int)) {
	ndim := len(dims)
	stride := make([]int, ndim)
	s := 1
	for d := ndim - 1; d >= 0; d-- {
		stride[d] = s
		s *= int(dims[d])
	}
	rstride := make([]int, ndim)
	s = 1
	for d := ndim - 1; d >= 0; d-- {
		rstride[d] = s
		s *= int(counts[d])
	}
	run := int(counts[ndim-1])
	coord := make([]int, ndim-1)
	for {
		di := int(offs[ndim-1])
		ri := 0
		for d := 0; d < ndim-1; d++ {
			di += (int(offs[d]) + coord[d]) * stride[d]
			ri += coord[d] * rstride[d]
		}
		fn(di, ri, run)
		d := ndim - 2
		for ; d >= 0; d-- {
			coord[d]++
			if coord[d] < int(counts[d]) {
				break
			}
			coord[d] = 0
		}
		if d < 0 {
			return
		}
	}
}

// region extracts (offs, counts) of the visible contents, row-major.
func (a *modelArr) region(offs, counts []uint64) []float64 {
	out := make([]float64, dimsSize(counts))
	forRuns(a.dims, offs, counts, func(di, ri, run int) {
		copy(out[ri:ri+run], a.data[di:di+run])
	})
	return out
}

// applicable reports whether op makes sense in the current state; the driver
// skips inapplicable ops uniformly (they appear when shrinking removes a
// prerequisite).
func (m *diffModel) applicable(op diffOp) bool {
	a := m.arrs[op.id]
	switch op.kind {
	case "alloc":
		return a == nil
	case "store":
		return a != nil && (a.valid || fullExtent(a.dims, op.offs, op.counts))
	case "delete":
		if a != nil {
			return a.valid
		}
		_, ok := m.datums[op.id]
		return ok
	case "datum":
		return true
	case "corrupt":
		// valid implies at least one published block to damage.
		return a != nil && a.valid
	}
	return false
}

func (m *diffModel) apply(op diffOp) {
	switch op.kind {
	case "alloc":
		m.arrs[op.id] = &modelArr{
			dims: append([]uint64(nil), op.dims...),
			data: make([]float64, dimsSize(op.dims)),
		}
	case "store":
		a := m.arrs[op.id]
		forRuns(a.dims, op.offs, op.counts, func(di, ri, run int) {
			copy(a.data[di:di+run], op.vals[ri:ri+run])
		})
		if len(a.blocks) == 0 {
			a.mn, a.mx = math.Inf(1), math.Inf(-1)
		}
		for _, v := range op.vals {
			a.mn, a.mx = min(a.mn, v), max(a.mx, v)
		}
		nb := modelBlock{offs: append([]uint64(nil), op.offs...), counts: append([]uint64(nil), op.counts...)}
		a.blocks = append(slices.DeleteFunc(a.blocks, func(b modelBlock) bool { return nb.contains(b) }), nb)
		if fullExtent(a.dims, op.offs, op.counts) {
			a.valid = true
		}
	case "delete":
		if a := m.arrs[op.id]; a != nil {
			a.blocks = nil
			a.valid = false
			a.dirty = false
		} else {
			delete(m.datums, op.id)
		}
	case "datum":
		m.datums[op.id] = append([]byte(nil), op.payload...)
	case "corrupt":
		m.arrs[op.id].dirty = true
	}
}

// contains reports whether b's region lies inside a's: the one rule by which
// a store drops a listed block.
func (a modelBlock) contains(b modelBlock) bool {
	for d := range a.offs {
		if b.offs[d] < a.offs[d] || b.offs[d]+b.counts[d] > a.offs[d]+a.counts[d] {
			return false
		}
	}
	return true
}

// --- backends and driver ---

type diffBackend struct {
	name string
	path string
	opts *core.Options
	hier bool // hierarchy layout: no corruption injection
}

func applyDiffOp(p *core.PMEM, op diffOp, hier bool) error {
	switch op.kind {
	case "alloc":
		return p.Alloc(op.id, serial.Float64, op.dims)
	case "store":
		return p.StoreBlock(op.id, op.offs, op.counts, bytesview.Bytes(op.vals))
	case "datum":
		return p.StoreDatum(op.id, &serial.Datum{Type: serial.Bytes, Payload: op.payload})
	case "delete":
		_, err := p.Delete(op.id)
		return err
	case "corrupt":
		if hier {
			return nil // injection needs the hashtable block structure
		}
		var n int64
		switch op.shape {
		case "bit":
			n = 1
		case "line":
			n = 64
		default:
			n = 0 // whole block
		}
		_, _, err := p.InjectCorruption(op.id, op.block, op.coff, n, op.mask)
		return err
	}
	return fmt.Errorf("unknown op kind %q", op.kind)
}

// runDiff replays ops on every backend and the model, comparing all
// observables after each op. It returns a divergence description ("" when
// the backends agree everywhere) and an infrastructure error. nodePools > 1
// provisions the shared node with that many PMEM devices (flavor E's sharded
// backend needs them; single-pool backends use device 0 and are unaffected).
func runDiff(ops []diffOp, backends []diffBackend, devSize int64, nodePools int) (string, error) {
	var nopts []node.Option
	if nodePools > 1 {
		nopts = append(nopts, node.WithPMEMPools(nodePools))
	}
	n := node.New(sim.DefaultConfig(), devSize, nopts...)
	n.Machine.SetConcurrency(1)
	var diverged string
	_, err := mpi.Run(n.Machine, 1, func(c *mpi.Comm) error {
		handles := make([]*core.PMEM, len(backends))
		for i, b := range backends {
			p, err := core.Mmap(c, n, b.path, core.OptionsArg(b.opts))
			if err != nil {
				return fmt.Errorf("mmap %s: %w", b.name, err)
			}
			handles[i] = p
		}
		m := newDiffModel()
		for i, op := range ops {
			if !m.applicable(op) {
				continue
			}
			if op.kind == "corrupt" {
				// Resolve the generated aim to a listed block's index. The
				// model's block list mirrors the serial whole-block backends,
				// pruned as they prune, so the reduced index is valid on every
				// backend (shrinking changes the listed count, so this must
				// happen at replay time).
				op.block %= len(m.arrs[op.id].blocks)
			}
			m.apply(op)
			for bi, b := range backends {
				if err := applyDiffOp(handles[bi], op, b.hier); err != nil {
					return fmt.Errorf("op %d (%s) on %s: %w", i, op, b.name, err)
				}
			}
			if msg, err := compareState(m, backends, handles, i); err != nil {
				return err
			} else if msg != "" {
				diverged = fmt.Sprintf("after op %d (%s): %s", i, op, msg)
				return nil
			}
		}
		return nil
	})
	return diverged, err
}

// compareState checks every observable of every backend against the model.
// The probe subrange is derived from the op index alone, so replays during
// shrinking probe identically.
func compareState(m *diffModel, backends []diffBackend, handles []*core.PMEM, opIdx int) (string, error) {
	probe := rand.New(rand.NewSource(int64(opIdx)*7919 + 1))
	ids := make([]string, 0, len(m.arrs))
	for id := range m.arrs {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		a := m.arrs[id]
		// Probe region: the full extent plus one random subrange.
		regions := [][2][]uint64{{make([]uint64, len(a.dims)), a.dims}}
		offs := make([]uint64, len(a.dims))
		cnts := make([]uint64, len(a.dims))
		for d, dim := range a.dims {
			offs[d] = uint64(probe.Intn(int(dim)))
			cnts[d] = 1 + uint64(probe.Intn(int(dim-offs[d])))
		}
		regions = append(regions, [2][]uint64{offs, cnts})

		for bi, b := range backends {
			p := handles[bi]
			dt, dims, err := p.LoadDims(id)
			if err != nil {
				return fmt.Sprintf("%s: dims of %s: %v", b.name, id, err), nil
			}
			if dt != serial.Float64 || fmt.Sprint(dims) != fmt.Sprint(a.dims) {
				return fmt.Sprintf("%s: dims of %s = %v %v, model %v", b.name, id, dt, dims, a.dims), nil
			}
			if !a.valid {
				// Deleted (or never based): loads must fail.
				dst := make([]byte, dimsSize(a.dims)*8)
				if err := p.LoadBlock(id, regions[0][0], regions[0][1], dst); err == nil {
					return fmt.Sprintf("%s: load of deleted %s succeeded", b.name, id), nil
				}
				continue
			}
			for _, r := range regions {
				want := bytesview.Bytes(a.region(r[0], r[1]))
				dst := make([]byte, len(want))
				err := p.LoadBlock(id, r[0], r[1], dst)
				if a.dirty && errors.Is(err, core.ErrCorrupt) {
					continue // contained: the read surfaced the damage
				}
				if err != nil {
					return fmt.Sprintf("%s: load %s offs=%v counts=%v: %v", b.name, id, r[0], r[1], err), nil
				}
				if !bytes.Equal(dst, want) {
					if a.dirty {
						return fmt.Sprintf("%s: load %s offs=%v counts=%v returned WRONG VALUES for a corrupted id (want ErrCorrupt or model bytes)",
							b.name, id, r[0], r[1]), nil
					}
					return fmt.Sprintf("%s: load %s offs=%v counts=%v differs from model", b.name, id, r[0], r[1]), nil
				}
			}
			mn, mx, err := p.MinMax(id)
			if a.dirty && errors.Is(err, core.ErrCorrupt) {
				continue // statistics are verified too: damage caught
			}
			if err != nil {
				return fmt.Sprintf("%s: minmax of %s: %v", b.name, id, err), nil
			}
			if mn != a.mn || mx != a.mx {
				return fmt.Sprintf("%s: MinMax(%s) = [%g, %g], model [%g, %g]",
					b.name, id, mn, mx, a.mn, a.mx), nil
			}
		}
	}
	dids := make([]string, 0, len(m.datums))
	for id := range m.datums {
		dids = append(dids, id)
	}
	sort.Strings(dids)
	for _, id := range dids {
		for bi, b := range backends {
			d, err := handles[bi].LoadDatum(id)
			if err != nil {
				return fmt.Sprintf("%s: datum %s: %v", b.name, id, err), nil
			}
			if !bytes.Equal(d.Payload, m.datums[id]) {
				return fmt.Sprintf("%s: datum %s differs from model (%d vs %d bytes)",
					b.name, id, len(d.Payload), len(m.datums[id])), nil
			}
		}
	}
	return "", nil
}

// --- generator ---

// genDiffOps generates n ops that are applicable in generation order, with
// payload values baked in. With corrupt set, silent-corruption ops are mixed
// into the stream (flavor C).
func genDiffOps(rng *rand.Rand, n int, shapes map[string][]uint64, datumIDs []string, datumMax int, corrupt bool) []diffOp {
	m := newDiffModel()
	arrIDs := make([]string, 0, len(shapes))
	for id := range shapes {
		arrIDs = append(arrIDs, id)
	}
	sort.Strings(arrIDs)

	randVals := func(sz int) []float64 {
		vals := make([]float64, sz)
		for i := range vals {
			vals[i] = float64(rng.Intn(1999) - 999)
		}
		return vals
	}
	var ops []diffOp
	for len(ops) < n {
		// Candidate ops in the current state; stores weighted heavier.
		type cand struct {
			kind string
			id   string
			full bool
		}
		var cs []cand
		for _, id := range arrIDs {
			a := m.arrs[id]
			if a == nil {
				cs = append(cs, cand{"alloc", id, false}, cand{"alloc", id, false})
				continue
			}
			cs = append(cs, cand{"store", id, true})
			if a.valid {
				cs = append(cs, cand{"store", id, false}, cand{"store", id, false},
					cand{"delete", id, false})
				if corrupt {
					cs = append(cs, cand{"corrupt", id, false}, cand{"corrupt", id, false})
				}
			}
		}
		for _, id := range datumIDs {
			cs = append(cs, cand{"datum", id, false})
			if _, ok := m.datums[id]; ok {
				cs = append(cs, cand{"delete", id, false})
			}
		}
		c := cs[rng.Intn(len(cs))]
		op := diffOp{kind: c.kind, id: c.id}
		switch c.kind {
		case "alloc":
			op.dims = shapes[c.id]
		case "store":
			dims := m.arrs[c.id].dims
			op.offs = make([]uint64, len(dims))
			op.counts = make([]uint64, len(dims))
			if c.full || rng.Intn(2) == 0 {
				copy(op.counts, dims)
			} else {
				for d, dim := range dims {
					op.offs[d] = uint64(rng.Intn(int(dim)))
					op.counts[d] = 1 + uint64(rng.Intn(int(dim-op.offs[d])))
				}
			}
			op.vals = randVals(dimsSize(op.counts))
		case "datum":
			op.payload = []byte(fmt.Sprintf("%s-%x", c.id, rng.Int63n(int64(datumMax))))
		case "corrupt":
			op.shape = []string{"bit", "line", "block"}[rng.Intn(3)]
			op.block = rng.Intn(1 << 16) // reduced modulo the live block count at replay
			switch op.shape {
			case "bit":
				op.coff = int64(rng.Intn(1 << 12))
				op.mask = 1 << uint(rng.Intn(8))
			case "line":
				op.coff = 64 * int64(rng.Intn(64)) // a torn 64-byte cache line
				op.mask = 0xff
			case "block":
				op.mask = 0xa5
			}
		}
		if !m.applicable(op) {
			continue
		}
		m.apply(op)
		ops = append(ops, op)
	}
	return ops
}

// --- shrinker ---

// shrinkOps minimizes ops while failing(ops) stays true, removing chunks
// from large to single ops (ddmin-style greedy). failing must be
// deterministic and is assumed true for the input.
func shrinkOps(ops []diffOp, failing func([]diffOp) bool) []diffOp {
	cur := ops
	chunk := len(cur) / 2
	if chunk < 1 {
		chunk = 1
	}
	for {
		removed := false
		for start := 0; start+chunk <= len(cur); {
			cand := make([]diffOp, 0, len(cur)-chunk)
			cand = append(cand, cur[:start]...)
			cand = append(cand, cur[start+chunk:]...)
			if failing(cand) {
				cur = cand
				removed = true
			} else {
				start += chunk
			}
		}
		if removed {
			continue // retry at the same granularity
		}
		if chunk == 1 {
			return cur
		}
		chunk /= 2
		if chunk < 1 {
			chunk = 1
		}
	}
}

// runDifferential generates, replays, and — on divergence — shrinks and
// reports the minimal failing sequence.
func runDifferential(t *testing.T, seed int64, nOps int, shapes map[string][]uint64,
	datumIDs []string, backends []diffBackend, devSize int64, corrupt bool) {
	t.Helper()
	runDifferentialPools(t, seed, nOps, shapes, datumIDs, backends, devSize, corrupt, 0)
}

// runDifferentialPools is runDifferential with an explicit node pool count
// (flavor E: the sharded backend needs a multi-device node).
func runDifferentialPools(t *testing.T, seed int64, nOps int, shapes map[string][]uint64,
	datumIDs []string, backends []diffBackend, devSize int64, corrupt bool, nodePools int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	ops := genDiffOps(rng, nOps, shapes, datumIDs, 1<<16, corrupt)
	msg, err := runDiff(ops, backends, devSize, nodePools)
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	if msg == "" {
		return
	}
	min := shrinkOps(ops, func(cand []diffOp) bool {
		m, err := runDiff(cand, backends, devSize, nodePools)
		return err == nil && m != ""
	})
	minMsg, _ := runDiff(min, backends, devSize, nodePools)
	t.Fatalf("seed %d: backends diverged: %s\nminimal failing sequence (%d ops):\n%s(divergence: %s)",
		seed, msg, len(min), fmtOps(min), minMsg)
}

// TestDifferentialHashtableVsHierarchy (flavor A): the hashtable layout, the
// hierarchy (posixfs-style) layout, and the DRAM model must agree on every
// observable under random serial op sequences including overwrites and Delete.
func TestDifferentialHashtableVsHierarchy(t *testing.T) {
	shapes := map[string][]uint64{
		"u": {48},
		"v": {6, 9},
		"w": {64},
	}
	backends := []diffBackend{
		{name: "hashtable", path: "/ht.pool", opts: &core.Options{PoolSize: 16 << 20}},
		{name: "hierarchy", path: "/hier", opts: &core.Options{Layout: core.LayoutHierarchy}, hier: true},
	}
	for _, seed := range []int64{1, 7, 42, 99, 2026} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			runDifferential(t, seed, 80, shapes, []string{"s1", "s2"}, backends, 32<<20, false)
		})
	}
}

// TestDifferentialParallelVsSerial (flavor B): the 4-worker sharded write
// engine and parallel gather engine must be observationally identical to the
// serial path on payloads straddling the parallel threshold — MinMax too,
// though a sharded store's list keeps blocks that only the union of its
// shards shadows.
func TestDifferentialParallelVsSerial(t *testing.T) {
	shapes := map[string][]uint64{
		"u": {32768},    // 256 KB full store: exactly the parallel threshold
		"v": {160, 240}, // 300 KB full store, 2-D sharding
	}
	backends := []diffBackend{
		{name: "parallel", path: "/par.pool",
			opts: &core.Options{PoolSize: 20 << 20, Parallelism: 4, ReadParallelism: 4}},
		{name: "serial", path: "/ser.pool",
			opts: &core.Options{PoolSize: 20 << 20, Parallelism: 1}},
	}
	for _, seed := range []int64{3, 11, 27} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			runDifferential(t, seed, 18, shapes, []string{"s1"}, backends, 64<<20, false)
		})
	}
}

// TestDifferentialCorruption (flavor C): random workloads interleaved with
// silent media corruption — single-bit flips, torn 64-byte lines, and
// whole-block garbage, injected without touching the recorded CRCs — replayed
// against fully-verified hashtable backends (serial and parallel-gather).
// The contract under VerifyFull: every read or statistics query of a damaged
// id either surfaces ErrCorrupt or returns exactly the model's bytes (the
// damage sat in a shadowed block the gather plan skips); a wrong value is a
// divergence, and the failing sequence ddmin-shrinks like any other flavor.
func TestDifferentialCorruption(t *testing.T) {
	shapes := map[string][]uint64{
		"u": {48},
		"v": {6, 9},
		"w": {512},
	}
	backends := []diffBackend{
		{name: "verify-serial", path: "/vs.pool",
			opts: &core.Options{PoolSize: 16 << 20, VerifyReads: core.VerifyFull}},
		{name: "verify-pargather", path: "/vp.pool",
			opts: &core.Options{PoolSize: 16 << 20, ReadParallelism: 4, VerifyReads: core.VerifyFull}},
	}
	for _, seed := range []int64{2, 9, 55, 404, 2027} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			runDifferential(t, seed, 60, shapes, []string{"s1"}, backends, 32<<20, true)
		})
	}
}

// TestDifferentialMultiPool (flavor E): a 4-pool sharded namespace — one
// backend striping large stores across member pools with the 4-worker copy
// engines, one routing every id to its home pool serially — must be
// observationally identical to the classic single-pool store and the DRAM
// model under random op sequences including overwrites, Delete, and datum
// churn. Placement is invisible to every observable; a divergence shrinks to
// a minimal sequence like every other flavor.
func TestDifferentialMultiPool(t *testing.T) {
	shapes := map[string][]uint64{
		"u": {32768},    // 256 KB full store: the parallel threshold, stripes across pools
		"v": {160, 240}, // 300 KB full store, 2-D sharding
		"w": {48},       // small: home-pool serial path
	}
	backends := []diffBackend{
		{name: "multipool", path: "/mp.pool",
			opts: &core.Options{PoolSize: 12 << 20, Pools: 4, Parallelism: 4, ReadParallelism: 4}},
		{name: "multipool-serial", path: "/mps.pool",
			opts: &core.Options{PoolSize: 12 << 20, Pools: 4}},
		{name: "singlepool", path: "/sp.pool",
			opts: &core.Options{PoolSize: 20 << 20}},
	}
	for _, seed := range []int64{5, 17, 303} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			runDifferentialPools(t, seed, 18, shapes, []string{"s1", "s2"}, backends, 64<<20, false, 4)
		})
	}
}

// TestDifferentialMultiPoolCorruption (flavor E + C): silent corruption
// injected into blocks scattered across member pools, replayed against fully
// verified multi-pool and single-pool backends. The integrity contract must
// survive pool routing: ErrCorrupt or model bytes, never a wrong value, with
// the pool-qualified quarantine containing damage on the right member pool.
func TestDifferentialMultiPoolCorruption(t *testing.T) {
	shapes := map[string][]uint64{
		"u": {48},
		"v": {6, 9},
		"w": {512},
	}
	backends := []diffBackend{
		{name: "verify-multipool", path: "/vmp.pool",
			opts: &core.Options{PoolSize: 12 << 20, Pools: 4, VerifyReads: core.VerifyFull}},
		{name: "verify-singlepool", path: "/vsp.pool",
			opts: &core.Options{PoolSize: 16 << 20, VerifyReads: core.VerifyFull}},
	}
	for _, seed := range []int64{4, 21, 777} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			runDifferentialPools(t, seed, 60, shapes, []string{"s1"}, backends, 32<<20, true, 4)
		})
	}
}

// TestShrinkOps pins the shrinker itself: an artificial predicate that fails
// whenever the sequence contains both a delete of "u" and a store of "v"
// must shrink any failing sequence down to exactly those two ops.
func TestShrinkOps(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	shapes := map[string][]uint64{"u": {16}, "v": {4, 4}}
	var ops []diffOp
	for {
		ops = genDiffOps(rng, 40, shapes, []string{"s1"}, 1<<10, false)
		hasDel, hasStore := false, false
		for _, o := range ops {
			hasDel = hasDel || (o.kind == "delete" && o.id == "u")
			hasStore = hasStore || (o.kind == "store" && o.id == "v")
		}
		if hasDel && hasStore {
			break
		}
	}
	failing := func(cand []diffOp) bool {
		hasDel, hasStore := false, false
		for _, o := range cand {
			hasDel = hasDel || (o.kind == "delete" && o.id == "u")
			hasStore = hasStore || (o.kind == "store" && o.id == "v")
		}
		return hasDel && hasStore
	}
	min := shrinkOps(ops, failing)
	if len(min) != 2 || !failing(min) {
		t.Fatalf("shrunk to %d ops (want 2):\n%s", len(min), fmtOps(min))
	}
}
