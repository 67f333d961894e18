// Package harness runs the paper's experiments: it sweeps (library, process
// count) combinations over the 3-D domain workload, measures per-phase
// virtual time exactly as the paper does ("wall-clock time from the point at
// which the file is opened/mmapped to when it is closed", max over ranks),
// and renders the Figure 6/7 series.
package harness

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"pmemcpy/internal/bytesview"
	"pmemcpy/internal/mpi"
	"pmemcpy/internal/node"
	"pmemcpy/internal/obs"
	"pmemcpy/internal/pio"
	"pmemcpy/internal/sim"
	"pmemcpy/internal/workload"
)

// Params configures one experiment run.
type Params struct {
	// TotalBytes is the modelled workload size (the paper: 40 GB).
	TotalBytes int64
	// Vars is the number of 3-D rectangles (the paper: 10).
	Vars int
	// Ranks is the number of processes.
	Ranks int
	// Config is the machine model (already scaled if Scale was applied).
	Config sim.Config
	// DeviceSize is the PMEM device capacity; 0 sizes it to fit the
	// workload with headroom.
	DeviceSize int64
	// Verify makes the read phase check every byte against the generator.
	Verify bool
	// Runs averages over this many repetitions (the paper: 3).
	Runs int
	// Pattern selects the read access pattern (default: the paper's
	// symmetric read-back).
	Pattern workload.Pattern
	// ReadRanks overrides the reader count for the restart pattern
	// (0 = same as Ranks).
	ReadRanks int
	// Capabilities are the optional library features the run asks for
	// (worker pools, histograms, verified reads, async writes, striping),
	// handed as they stand to a pio.Configurable library; the baselines have
	// nothing to enable and ignore them. Metrics also captures a per-phase
	// observability snapshot into the Result, and with Pools > 1 the harness
	// provisions the node with one device of DeviceSize bytes per pool.
	pio.Capabilities
}

// Entry is one library of a sweep. Label, when set, replaces the library's
// own name in the results — how ablation tables tell variants of one library
// apart.
type Entry struct {
	Label string
	Lib   pio.Library
}

// Result is one (library, ranks) measurement.
type Result struct {
	Library string
	Ranks   int
	Bytes   int64
	Write   time.Duration
	Read    time.Duration
	// WriteMetrics and ReadMetrics are the per-phase observability snapshots,
	// captured on rank 0 after the collective Close (so every rank's
	// operations are included). Empty unless Params.Metrics was set and the
	// library's sessions implement pio.Instrumented; for multi-run averages
	// they are the last run's snapshots.
	WriteMetrics obs.Snapshot
	ReadMetrics  obs.Snapshot
}

// String renders a result row.
func (r Result) String() string {
	return fmt.Sprintf("%-8s n=%-3d write=%8.3fs read=%8.3fs (%.2f GB)",
		r.Library, r.Ranks, r.Write.Seconds(), r.Read.Seconds(), float64(r.Bytes)/1e9)
}

// Run executes the write+read experiment for lib under p and returns the
// averaged phase times.
func Run(lib pio.Library, p Params) (Result, error) {
	return run(Entry{Lib: lib}, p)
}

func run(e Entry, p Params) (Result, error) {
	if p.Runs <= 0 {
		p.Runs = 1
	}
	lib := e.Lib
	if cz, ok := lib.(pio.Configurable); ok {
		lib = cz.Configure(p.Capabilities)
	}
	if e.Label == "" {
		e.Label = lib.Name()
	}
	res := Result{Library: e.Label, Ranks: p.Ranks}
	for i := 0; i < p.Runs; i++ {
		one, err := runOnce(lib, p)
		if err != nil {
			return res, fmt.Errorf("%s n=%d run %d: %w", e.Label, p.Ranks, i, err)
		}
		res.Bytes = one.Bytes
		res.Write += one.Write
		res.Read += one.Read
		res.WriteMetrics = one.WriteMetrics
		res.ReadMetrics = one.ReadMetrics
	}
	res.Write /= time.Duration(p.Runs)
	res.Read /= time.Duration(p.Runs)
	return res, nil
}

func runOnce(lib pio.Library, p Params) (Result, error) {
	spec, err := workload.NewSpec(p.TotalBytes, p.Vars, p.Ranks)
	if err != nil {
		return Result{}, err
	}
	devSize := p.DeviceSize
	if devSize == 0 {
		// Data + serialization headers + pool metadata headroom.
		devSize = spec.TotalBytes() + spec.TotalBytes()/4 + (64 << 20)
		if p.Pools > 1 {
			// Striping spreads the data evenly; each member device holds its
			// share plus per-pool metadata headroom.
			devSize = devSize/int64(p.Pools) + (64 << 20)
		}
	}
	n := node.New(p.Config, devSize, node.WithPMEMPools(p.Pools))

	// ---- Write phase: open/mmap .. close, max over ranks ----
	n.Machine.SetConcurrency(p.Ranks)
	var writeTime time.Duration
	var writeSnap, readSnap obs.Snapshot
	_, err = mpi.Run(n.Machine, p.Ranks, func(c *mpi.Comm) error {
		rank := c.Rank()
		buf := make([]float64, spec.BlockElems())
		// The paper generates the cube, then times the I/O: generation is
		// excluded from the timed window by sampling the clock around it.
		t0 := c.Clock().Now()
		w, err := lib.OpenWrite(c, n, "/exp.data")
		if err != nil {
			return err
		}
		for _, v := range spec.Vars {
			if err := w.DefineVar(v); err != nil {
				return err
			}
		}
		var genTime time.Duration
		for vi, v := range spec.Vars {
			g0 := c.Clock().Now()
			vals := spec.Fill(c, n.Machine, vi, rank, buf)
			genTime += c.Clock().Now() - g0
			offs, counts := spec.Block(rank)
			if err := w.Write(v.Name, offs, counts, f64bytes(vals)); err != nil {
				return err
			}
		}
		if err := w.Close(); err != nil {
			return err
		}
		// Close is collective, so by the time rank 0 returns from it every
		// rank's operations have landed in the shared registry.
		if p.Metrics && rank == 0 {
			if im, ok := w.(pio.Instrumented); ok {
				writeSnap = im.Metrics()
			}
		}
		dt := c.Clock().Now() - t0 - genTime
		mx, err := c.AllreduceU64(uint64(dt), mpi.OpMax)
		if err != nil {
			return err
		}
		if rank == 0 {
			writeTime = time.Duration(mx)
		}
		return nil
	})
	if err != nil {
		return Result{}, err
	}

	// ---- Read phase: a fresh job (possibly a different rank count, the
	// restart scenario) reads under the configured pattern ----
	readRanks := p.ReadRanks
	if readRanks == 0 {
		readRanks = p.Ranks
	}
	n.Machine.SetConcurrency(readRanks)
	var readTime time.Duration
	_, err = mpi.Run(n.Machine, readRanks, func(c *mpi.Comm) error {
		rank := c.Rank()
		t1 := c.Clock().Now()
		r, err := lib.OpenRead(c, n, "/exp.data")
		if err != nil {
			return err
		}
		var verifyTime time.Duration
		var dst []byte
		for vi, v := range spec.Vars {
			offs, counts, err := spec.ReadBlock(p.Pattern, readRanks, rank)
			if err != nil {
				return err
			}
			need := uint64(8)
			for _, cn := range counts {
				need *= cn
			}
			if uint64(len(dst)) < need {
				dst = make([]byte, need)
			}
			if err := r.Read(v.Name, offs, counts, dst[:need]); err != nil {
				return err
			}
			if p.Verify {
				v0 := c.Clock().Now()
				if err := spec.VerifyBlock(c, n.Machine, vi, offs, counts, dst[:need], readRanks); err != nil {
					return err
				}
				verifyTime += c.Clock().Now() - v0
			}
		}
		if err := r.Close(); err != nil {
			return err
		}
		if p.Metrics && rank == 0 {
			if im, ok := r.(pio.Instrumented); ok {
				readSnap = im.Metrics()
			}
		}
		dt := c.Clock().Now() - t1 - verifyTime
		mx, err := c.AllreduceU64(uint64(dt), mpi.OpMax)
		if err != nil {
			return err
		}
		if rank == 0 {
			readTime = time.Duration(mx)
		}
		return nil
	})
	if err != nil {
		return Result{}, err
	}
	return Result{
		Library:      lib.Name(),
		Ranks:        p.Ranks,
		Bytes:        spec.TotalBytes(),
		Write:        writeTime,
		Read:         readTime,
		WriteMetrics: writeSnap,
		ReadMetrics:  readSnap,
	}, nil
}

func f64bytes(v []float64) []byte {
	return bytesview.Bytes(v)
}

// Sweep runs every entry over every rank count and returns all results in
// (entry, ranks) order.
func Sweep(entries []Entry, rankCounts []int, base Params) ([]Result, error) {
	var out []Result
	for _, e := range entries {
		for _, ranks := range rankCounts {
			p := base
			p.Ranks = ranks
			res, err := run(e, p)
			if err != nil {
				return out, err
			}
			out = append(out, res)
		}
	}
	return out, nil
}

// Table renders results as one figure-style table: libraries as columns,
// rank counts as rows, one phase per call ("write" or "read").
func Table(w io.Writer, results []Result, phase string) {
	libs := make([]string, 0)
	seenLib := map[string]bool{}
	ranksSet := map[int]bool{}
	cell := map[string]time.Duration{}
	for _, r := range results {
		if !seenLib[r.Library] {
			seenLib[r.Library] = true
			libs = append(libs, r.Library)
		}
		ranksSet[r.Ranks] = true
		d := r.Write
		if phase == "read" {
			d = r.Read
		}
		cell[fmt.Sprintf("%s/%d", r.Library, r.Ranks)] = d
	}
	ranks := make([]int, 0, len(ranksSet))
	for k := range ranksSet {
		ranks = append(ranks, k)
	}
	sort.Ints(ranks)

	fmt.Fprintf(w, "%-8s", "#PROCS")
	for _, lib := range libs {
		fmt.Fprintf(w, " %12s", lib)
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, strings.Repeat("-", 8+13*len(libs)))
	for _, n := range ranks {
		fmt.Fprintf(w, "%-8d", n)
		for _, lib := range libs {
			d, ok := cell[fmt.Sprintf("%s/%d", lib, n)]
			if !ok {
				fmt.Fprintf(w, " %12s", "-")
				continue
			}
			fmt.Fprintf(w, " %11.3fs", d.Seconds())
		}
		fmt.Fprintln(w)
	}
}

// CSV renders results as comma-separated rows for plotting.
func CSV(w io.Writer, results []Result) {
	fmt.Fprintln(w, "library,ranks,bytes,write_s,read_s")
	for _, r := range results {
		fmt.Fprintf(w, "%s,%d,%d,%.6f,%.6f\n",
			r.Library, r.Ranks, r.Bytes, r.Write.Seconds(), r.Read.Seconds())
	}
}

// Speedup returns a's time divided by b's time for the phase (how much
// faster b is than a).
func Speedup(a, b Result, phase string) float64 {
	if phase == "read" {
		if b.Read == 0 {
			return 0
		}
		return float64(a.Read) / float64(b.Read)
	}
	if b.Write == 0 {
		return 0
	}
	return float64(a.Write) / float64(b.Write)
}
