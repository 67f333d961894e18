// Package mpiio implements the MPI-IO layer the NetCDF-family baselines sit
// on: independent read/write plus ROMIO-style two-phase collective I/O with
// aggregators.
//
// Two-phase collective I/O is the data rearrangement the paper blames for
// NetCDF/pNetCDF's losses on PMEM: every collective call (1) exchanges
// intersection metadata, (2) ships each rank's data to the aggregator that
// owns its file domain (shared-memory traffic), (3) packs the pieces into
// contiguous runs (CPU + DRAM traffic), and (4) performs large contiguous
// kernel-path writes (syscall + page-cache copy + device). All four costs are
// incurred by really doing the work, not by adding a fudge factor.
package mpiio

import (
	"encoding/binary"
	"fmt"
	"sort"

	"pmemcpy/internal/mpi"
	"pmemcpy/internal/posixfs"
	"pmemcpy/internal/sim"
)

// DefaultAggregators is the collective-buffering fan-in used when the caller
// passes 0, mirroring ROMIO's modest cb_nodes defaults.
const DefaultAggregators = 8

// File is a parallel file handle: every rank holds its own POSIX handle on
// the same underlying file.
type File struct {
	comm *mpi.Comm
	fh   *posixfs.File
	aggs int
}

// OpenCreate collectively creates (truncating) the file at path. Rank 0
// creates it; every rank then opens its own handle. aggregators selects the
// collective-buffering fan-in (0 = DefaultAggregators).
func OpenCreate(c *mpi.Comm, fs *posixfs.FS, path string, aggregators int) (*File, error) {
	clk := c.Clock()
	if c.Rank() == 0 {
		f, err := fs.Create(clk, path)
		if err != nil {
			return nil, err
		}
		if err := f.Close(); err != nil {
			return nil, err
		}
	}
	if err := c.Barrier(); err != nil {
		return nil, err
	}
	return openCommon(c, fs, path, aggregators)
}

// OpenRead collectively opens an existing file for reading.
func OpenRead(c *mpi.Comm, fs *posixfs.FS, path string, aggregators int) (*File, error) {
	if err := c.Barrier(); err != nil {
		return nil, err
	}
	return openCommon(c, fs, path, aggregators)
}

func openCommon(c *mpi.Comm, fs *posixfs.FS, path string, aggregators int) (*File, error) {
	fh, err := fs.Open(c.Clock(), path)
	if err != nil {
		return nil, err
	}
	if aggregators <= 0 {
		aggregators = DefaultAggregators
	}
	if aggregators > c.Size() {
		aggregators = c.Size()
	}
	return &File{comm: c, fh: fh, aggs: aggregators}, nil
}

// Comm returns the communicator the file was opened with.
func (f *File) Comm() *mpi.Comm { return f.comm }

// Size returns the file's current size.
func (f *File) Size() int64 { return f.fh.Size() }

// Close closes the rank-local handle (collective in spirit; callers barrier
// around it when ordering matters).
func (f *File) Close() error { return f.fh.Close() }

// Sync flushes the file durably (collective fsync: every rank syncs its own
// handle; the filesystem deduplicates by extents).
func (f *File) Sync() error { return f.fh.Sync(f.comm.Clock()) }

// WriteAt performs an independent write at off.
func (f *File) WriteAt(p []byte, off int64) (int, error) {
	return f.fh.WriteAt(f.comm.Clock(), p, off)
}

// ReadAt performs an independent read at off.
func (f *File) ReadAt(p []byte, off int64) (int, error) {
	return f.fh.ReadAt(f.comm.Clock(), p, off)
}

// Range pairs an absolute file offset with a data buffer: the unit of a
// noncontiguous (filetype-style) collective request.
type Range struct {
	Off  int64
	Data []byte
}

// request describes one contiguous byte range in a collective call.
type request struct{ off, n int64 }

// gatherRangeLists exchanges every rank's (off, len) list so all ranks can
// compute identical file domains.
func (f *File) gatherRangeLists(ranges []Range) ([][]request, error) {
	var enc []byte
	var tmp [16]byte
	for _, r := range ranges {
		binary.LittleEndian.PutUint64(tmp[0:], uint64(r.Off))
		binary.LittleEndian.PutUint64(tmp[8:], uint64(len(r.Data)))
		enc = append(enc, tmp[:]...)
	}
	// Range lists are framing metadata: negligible next to the data at real
	// scale, so they are charged latency-only (see mpi.AllgatherVol).
	all, err := f.comm.AllgatherVol(enc, 0)
	if err != nil {
		return nil, err
	}
	out := make([][]request, len(all))
	for i, b := range all {
		if len(b)%16 != 0 {
			return nil, fmt.Errorf("mpiio: malformed range list from rank %d", i)
		}
		reqs := make([]request, 0, len(b)/16)
		for pos := 0; pos < len(b); pos += 16 {
			reqs = append(reqs, request{
				int64(binary.LittleEndian.Uint64(b[pos:])),
				int64(binary.LittleEndian.Uint64(b[pos+8:])),
			})
		}
		out[i] = reqs
	}
	return out, nil
}

// domains splits the union extent of all requests into one contiguous file
// domain per aggregator. Aggregator i is rank i.
func (f *File) domains(reqLists [][]request) []request {
	lo, hi := int64(-1), int64(0)
	for _, reqs := range reqLists {
		for _, r := range reqs {
			if r.n == 0 {
				continue
			}
			if lo < 0 || r.off < lo {
				lo = r.off
			}
			if r.off+r.n > hi {
				hi = r.off + r.n
			}
		}
	}
	doms := make([]request, f.aggs)
	if lo < 0 {
		return doms // nothing to do
	}
	total := hi - lo
	per := (total + int64(f.aggs) - 1) / int64(f.aggs)
	// Align domain boundaries to the cacheline so aggregator writes stay
	// flush-friendly.
	per = (per + sim.CachelineSize - 1) &^ (sim.CachelineSize - 1)
	for a := range doms {
		dlo := lo + int64(a)*per
		dhi := dlo + per
		if dlo > hi {
			dlo, dhi = hi, hi
		}
		if dhi > hi {
			dhi = hi
		}
		doms[a] = request{dlo, dhi - dlo}
	}
	return doms
}

func intersect(a, b request) request {
	lo := max64(a.off, b.off)
	hi := min64(a.off+a.n, b.off+b.n)
	if hi <= lo {
		return request{}
	}
	return request{lo, hi - lo}
}

// The wire format between ranks is a sequence of framed chunks, each an
// 8-byte little-endian absolute offset, an 8-byte length, and the payload.
// A part may carry several chunks when a rank's range spans multiple
// aggregator runs.
func appendChunk(buf []byte, off int64, data []byte) []byte {
	var hdr [16]byte
	binary.LittleEndian.PutUint64(hdr[0:], uint64(off))
	binary.LittleEndian.PutUint64(hdr[8:], uint64(len(data)))
	buf = append(buf, hdr[:]...)
	return append(buf, data...)
}

// eachChunk decodes every framed chunk in b.
func eachChunk(b []byte, fn func(off int64, data []byte) error) error {
	for len(b) > 0 {
		if len(b) < 16 {
			return fmt.Errorf("mpiio: short chunk header of %d bytes", len(b))
		}
		off := int64(binary.LittleEndian.Uint64(b[0:]))
		n := int64(binary.LittleEndian.Uint64(b[8:]))
		if int64(len(b)-16) < n {
			return fmt.Errorf("mpiio: chunk payload truncated: want %d, have %d", n, len(b)-16)
		}
		if err := fn(off, b[16:16+n]); err != nil {
			return err
		}
		b = b[16+n:]
	}
	return nil
}

// chargePack accounts a pack/unpack pass over n bytes (CPU + DRAM).
func (f *File) chargePack(n int64) {
	m := f.comm.Machine()
	m.ChargePasses(f.comm.Clock(), n, 1, m.Config().PackBPS, f.comm.Size())
}

// WriteRangesAll performs a two-phase collective write of a noncontiguous
// set of ranges (the MPI filetype / NetCDF hyperslab case). All ranks must
// call it together; a rank with nothing to write passes an empty slice.
func (f *File) WriteRangesAll(ranges []Range) error {
	reqLists, err := f.gatherRangeLists(ranges)
	if err != nil {
		return err
	}
	doms := f.domains(reqLists)

	// Phase 1: ship each aggregator its slices of my data.
	parts := make([][]byte, f.comm.Size())
	var myBytes int64
	for _, rg := range ranges {
		mine := request{rg.Off, int64(len(rg.Data))}
		myBytes += mine.n
		for a, d := range doms {
			is := intersect(mine, d)
			if is.n == 0 {
				continue
			}
			parts[a] = appendChunk(parts[a], is.off, rg.Data[is.off-rg.Off:is.off-rg.Off+is.n])
		}
	}
	f.chargePack(myBytes) // building the send segments
	// The exchange volume is the payload each rank moves: what it sends
	// plus, for aggregators, what lands in their file domain.
	vol := myBytes
	if f.comm.Rank() < f.aggs {
		if recv := domainPayload(reqLists, doms[f.comm.Rank()]); recv > vol {
			vol = recv
		}
	}
	recvd, err := f.comm.AlltoallVol(parts, vol)
	if err != nil {
		return err
	}

	// Phase 2: aggregators coalesce and write contiguous runs.
	if f.comm.Rank() < f.aggs {
		type piece struct {
			off  int64
			data []byte
		}
		var pieces []piece
		var total int64
		for _, b := range recvd {
			err := eachChunk(b, func(o int64, data []byte) error {
				pieces = append(pieces, piece{o, data})
				total += int64(len(data))
				return nil
			})
			if err != nil {
				return err
			}
		}
		sort.Slice(pieces, func(i, j int) bool { return pieces[i].off < pieces[j].off })
		f.chargePack(total) // assembling the collective buffer
		// Merge adjacent pieces into runs and issue one write per run.
		clk := f.comm.Clock()
		i := 0
		for i < len(pieces) {
			runStart := pieces[i].off
			runBuf := append([]byte(nil), pieces[i].data...)
			j := i + 1
			for j < len(pieces) && pieces[j].off == runStart+int64(len(runBuf)) {
				runBuf = append(runBuf, pieces[j].data...)
				j++
			}
			if _, err := f.fh.WriteAt(clk, runBuf, runStart); err != nil {
				return err
			}
			i = j
		}
	}
	return f.comm.Barrier()
}

// ReadRangesAll performs a two-phase collective read of a noncontiguous set
// of ranges: aggregators read their file domains contiguously and scatter the
// pieces back to the requesting ranks, filling each Range's Data buffer in
// place. All ranks must call it together.
func (f *File) ReadRangesAll(ranges []Range) error {
	reqLists, err := f.gatherRangeLists(ranges)
	if err != nil {
		return err
	}
	doms := f.domains(reqLists)

	// Phase 1: aggregators read the parts of their domain that somebody
	// wants, then build per-destination chunks.
	parts := make([][]byte, f.comm.Size())
	if f.comm.Rank() < f.aggs {
		d := doms[f.comm.Rank()]
		clk := f.comm.Clock()
		// Coalesce the requested sub-ranges of this domain into runs.
		var wants []request
		for _, reqs := range reqLists {
			for _, r := range reqs {
				if is := intersect(r, d); is.n > 0 {
					wants = append(wants, is)
				}
			}
		}
		sort.Slice(wants, func(i, j int) bool { return wants[i].off < wants[j].off })
		runs := mergeRuns(wants)
		buf := make(map[int64][]byte, len(runs))
		var total int64
		for _, run := range runs {
			b := make([]byte, run.n)
			if _, err := f.fh.ReadAt(clk, b, run.off); err != nil {
				return err
			}
			buf[run.off] = b
			total += run.n
		}
		f.chargePack(total)
		// Slice out each requester's pieces (possibly several per range).
		for r, reqs := range reqLists {
			for _, req := range reqs {
				is := intersect(req, d)
				if is.n == 0 {
					continue
				}
				for _, run := range runs {
					ri := intersect(is, run)
					if ri.n == 0 {
						continue
					}
					b := buf[run.off]
					parts[r] = appendChunk(parts[r], ri.off, b[ri.off-run.off:ri.off-run.off+ri.n])
				}
			}
		}
	}
	var myBytes int64
	for _, rg := range ranges {
		myBytes += int64(len(rg.Data))
	}
	vol := myBytes
	if f.comm.Rank() < f.aggs {
		if sentAgg := domainPayload(reqLists, doms[f.comm.Rank()]); sentAgg > vol {
			vol = sentAgg
		}
	}
	recvd, err := f.comm.AlltoallVol(parts, vol)
	if err != nil {
		return err
	}

	// Phase 2: unpack received pieces into the matching request buffers.
	// Ranges are sorted by offset for binary-search placement.
	idx := make([]int, len(ranges))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return ranges[idx[a]].Off < ranges[idx[b]].Off })
	var got int64
	for _, b := range recvd {
		err := eachChunk(b, func(o int64, data []byte) error {
			// Find the last range starting at or before o.
			lo, hi := 0, len(idx)
			for lo < hi {
				mid := (lo + hi) / 2
				if ranges[idx[mid]].Off <= o {
					lo = mid + 1
				} else {
					hi = mid
				}
			}
			if lo == 0 {
				return fmt.Errorf("mpiio: received chunk at %d before any request", o)
			}
			rg := &ranges[idx[lo-1]]
			if o+int64(len(data)) > rg.Off+int64(len(rg.Data)) {
				return fmt.Errorf("mpiio: received chunk [%d,%d) outside request [%d,%d)",
					o, o+int64(len(data)), rg.Off, rg.Off+int64(len(rg.Data)))
			}
			copy(rg.Data[o-rg.Off:], data)
			got += int64(len(data))
			return nil
		})
		if err != nil {
			return err
		}
	}
	f.chargePack(got)
	return f.comm.Barrier()
}

// domainPayload sums the bytes of every request that intersects domain d.
func domainPayload(reqLists [][]request, d request) int64 {
	var total int64
	for _, reqs := range reqLists {
		for _, r := range reqs {
			if is := intersect(r, d); is.n > 0 {
				total += is.n
			}
		}
	}
	return total
}

// mergeRuns coalesces sorted, possibly overlapping ranges into disjoint runs.
func mergeRuns(rs []request) []request {
	var out []request
	for _, r := range rs {
		if len(out) > 0 {
			last := &out[len(out)-1]
			if r.off <= last.off+last.n {
				if end := r.off + r.n; end > last.off+last.n {
					last.n = end - last.off
				}
				continue
			}
		}
		out = append(out, r)
	}
	return out
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
