// Package netcdf implements the NetCDF-4/HDF5-style baseline: variables are
// stored in a single file as contiguous global linearizations (HDF5's
// default contiguous layout), so every parallel write and read of a block
// requires data rearrangement through two-phase collective I/O.
//
// This is the data path the paper measures as 2.5x (writes) to 5x (reads)
// slower than pMEMCPY on PMEM: the global linearization forces network
// communication and pack/unpack copies that the log-structured libraries
// avoid, and all storage traffic goes through kernel read/write.
//
// The file is filefmt's region file, written with one collective per Write;
// this package adds fill mode. Fill mode mirrors nc_def_var_fill: by default
// variables are pre-filled with a fill value at definition time, "which
// causes significant overhead for write workloads" — the paper explicitly
// sets NC_NOFILL, and so does the harness; the fill path is kept for the
// ablation.
package netcdf

import (
	"pmemcpy/internal/mpi"
	"pmemcpy/internal/mpiio"
	"pmemcpy/internal/nd"
	"pmemcpy/internal/node"
	"pmemcpy/internal/pio"
	"pmemcpy/internal/pio/filefmt"
)

// FillValue is the byte written over variable regions in fill mode.
const FillValue = 0x9C

// Library is the pio.Library implementation for NetCDF-4.
type Library struct {
	// Fill enables fill mode (the NC_FILL default of real NetCDF). The
	// harness leaves it false, matching the paper's NC_NOFILL setting.
	Fill bool
	// Chunked selects HDF5's chunked layout instead of the default
	// contiguous one: each written block becomes a chunk, optionally run
	// through a filter pipeline.
	Chunked bool
	// Filter is the chunk filter spec ("rle", "shuffle", "shuffle+rle", or
	// empty for none); only meaningful with Chunked.
	Filter string
}

// Name implements pio.Library.
func (l Library) Name() string {
	if l.Chunked {
		return "NetCDF-chunked"
	}
	return "NetCDF"
}

// format is the contiguous layout's file; fill mode hangs off AfterDef.
var format = filefmt.Region{Lib: "netcdf", Magic: 0x344644435F54454E, NameLenBytes: 2} // "NET_CDF4"

// OpenWrite implements pio.Library.
func (l Library) OpenWrite(c *mpi.Comm, n *node.Node, path string) (pio.Writer, error) {
	if l.Chunked {
		return l.openChunkedWrite(c, n, path)
	}
	layout := format
	if l.Fill {
		layout.AfterDef = fillRegions
	}
	return layout.Create(c, n, path)
}

// OpenRead implements pio.Library.
func (l Library) OpenRead(c *mpi.Comm, n *node.Node, path string) (pio.Reader, error) {
	if l.Chunked {
		return l.openChunkedRead(c, n, path)
	}
	return format.Open(c, n, path)
}

// fillRegions writes the fill value over every variable region, with the
// work split evenly across ranks (independent writes).
func fillRegions(c *mpi.Comm, f *mpiio.File, vars []*filefmt.Var) error {
	n := int64(c.Size())
	r := int64(c.Rank())
	for _, v := range vars {
		size := int64(nd.Size(v.GlobalDims)) * int64(v.ElemSize())
		per := (size + n - 1) / n
		lo := min(r*per, size)
		hi := min(lo+per, size)
		if hi <= lo {
			continue
		}
		fill := make([]byte, hi-lo)
		for i := range fill {
			fill[i] = FillValue
		}
		if _, err := f.WriteAt(fill, v.Off+lo); err != nil {
			return err
		}
	}
	return c.Barrier()
}
