// Package pnetcdf implements the pNetCDF baseline: the same contiguous
// global (CDF-5 style) data layout as NetCDF, reached through pNetCDF's
// characteristic nonblocking API. Writes are queued iput_vara-style — each
// call copies the user block into an internal staging buffer — and the
// queued requests execute as one combined two-phase collective at close
// (ncmpi_wait_all), which is how the library is used in practice.
//
// The paper finds pNetCDF performs close to NetCDF-4 on PMEM (both pay the
// rearrangement and kernel-copy costs of a global linearization). Both are
// filefmt's region file; what is pNetCDF's own is the CDF-5 header (4-byte
// name lengths) and the deferred queue: the iput staging copy on every Write
// and the single flush at Close.
package pnetcdf

import (
	"pmemcpy/internal/mpi"
	"pmemcpy/internal/node"
	"pmemcpy/internal/pio"
	"pmemcpy/internal/pio/filefmt"
)

var format = filefmt.Region{Lib: "pnetcdf", Magic: 0x0135464443503550, NameLenBytes: 4, Deferred: true} // "P5PCDF5\x01"

// Library is the pio.Library implementation for pNetCDF.
type Library struct{}

// Name implements pio.Library.
func (Library) Name() string { return "pNetCDF" }

// OpenWrite implements pio.Library.
func (Library) OpenWrite(c *mpi.Comm, n *node.Node, path string) (pio.Writer, error) {
	return format.Create(c, n, path)
}

// OpenRead implements pio.Library.
func (Library) OpenRead(c *mpi.Comm, n *node.Node, path string) (pio.Reader, error) {
	return format.Open(c, n, path)
}
