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

// Instrumented is implemented by sessions (Writers/Readers) that expose an
// observability snapshot. The harness captures it on rank 0 before Close so
// benchmark tools can write a Prometheus-style exposition next to results.
type Instrumented interface {
	Metrics() obs.Snapshot
}
