// Package pio defines the common parallel-I/O interface the experiment
// harness drives across all libraries under comparison: ADIOS-like,
// NetCDF-4-like, pNetCDF-like, and pMEMCPY itself. The interface is the
// least common denominator the paper's workload needs: define N-dimensional
// variables, write per-rank blocks, read them back.
package pio

import (
	"fmt"

	"pmemcpy/internal/mpi"
	"pmemcpy/internal/node"
	"pmemcpy/internal/obs"
	"pmemcpy/internal/serial"
)

// Var describes one N-dimensional variable of a dataset.
type Var struct {
	Name       string
	Type       serial.DType
	GlobalDims []uint64
}

// ElemSize returns the variable's element size in bytes.
func (v Var) ElemSize() int { return v.Type.Size() }

// Validate checks the variable description.
func (v Var) Validate() error {
	if v.Name == "" {
		return fmt.Errorf("pio: variable with empty name")
	}
	if !v.Type.Fixed() {
		return fmt.Errorf("pio: variable %q has non-fixed type %v", v.Name, v.Type)
	}
	if len(v.GlobalDims) == 0 || len(v.GlobalDims) > serial.MaxDims {
		return fmt.Errorf("pio: variable %q has rank %d", v.Name, len(v.GlobalDims))
	}
	return nil
}

// Writer is a per-rank handle on a collective write session. DefineVar and
// Close are collective; Write is independent per rank.
type Writer interface {
	// DefineVar declares a variable; all ranks must define the same set.
	DefineVar(v Var) error
	// Write stores this rank's block (offs/counts in elements) of the named
	// variable. data is the block's row-major bytes.
	Write(name string, offs, counts []uint64, data []byte) error
	// Close finalizes the dataset durably. Collective.
	Close() error
}

// Reader is a per-rank handle on a read session.
type Reader interface {
	// Dims returns the named variable's global dimensions.
	Dims(name string) ([]uint64, error)
	// Read fills dst with the requested block of the named variable.
	Read(name string, offs, counts []uint64, dst []byte) error
	// Close releases the session. Collective.
	Close() error
}

// Library abstracts one PIO implementation under test.
type Library interface {
	// Name is the display name used in result tables ("ADIOS", "PMCPY-A"...).
	Name() string
	// OpenWrite starts a collective write session on path.
	OpenWrite(c *mpi.Comm, n *node.Node, path string) (Writer, error)
	// OpenRead starts a collective read session on path.
	OpenRead(c *mpi.Comm, n *node.Node, path string) (Reader, error)
}

// Capabilities is the full set of optional features a harness run may ask a
// library to enable — the only library-neutral declaration of those knobs:
// harness.Params embeds it, and a Configurable library maps each field onto
// its own option of the same name. Zero values mean "leave the library's own
// default": Configure applies only the non-zero fields, so a Capabilities
// taken straight from harness parameters composes with configuration already
// baked into the library literal.
type Capabilities struct {
	// Parallelism is the per-rank write copy-engine worker count
	// (0: library default; 1: serial).
	Parallelism int
	// ReadParallelism is the gather (read) engine worker count
	// (0: follow Parallelism; 1: serial reads).
	ReadParallelism int
	// Metrics enables latency/shape histogram recording on sessions.
	Metrics bool
	// VerifyReads selects read-path checksum verification:
	// 0 = off, 1 = sampled, 2 = full.
	VerifyReads int
	// Async routes writes through the asynchronous submission pipeline:
	// writes queue and group-commit in batches, and Close drains the queue.
	Async bool
	// CoalesceWindow is the async batch size (0: library default).
	CoalesceWindow int
	// Pools shards the namespace across n member pools (0: library default;
	// 1: single pool). The node driving the session must carry a matching
	// device per pool.
	Pools int
}

// Configurable is implemented by libraries that accept a Capabilities set.
// Configure returns a copy of the library with the non-zero fields applied;
// it must leave fields at their zero value untouched so literal-level
// configuration (codec, layout, ...) survives.
type Configurable interface {
	Library
	Configure(c Capabilities) Library
}

// Instrumented is implemented by sessions (Writers/Readers) that expose an
// observability snapshot. The harness captures it on rank 0 before Close so
// benchmark tools can write a Prometheus-style exposition next to results.
type Instrumented interface {
	Metrics() obs.Snapshot
}
