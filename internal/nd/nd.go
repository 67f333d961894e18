// Package nd provides the N-dimensional array index arithmetic shared by the
// I/O libraries: row-major linearization, hyperslab-to-contiguous-run
// iteration, block intersection, and subarray copies. This is the math under
// NetCDF hyperslabs, ADIOS block selections, and pMEMCPY's offset/count
// store/load APIs.
package nd

import (
	"errors"
	"fmt"
)

// ErrOutOfBounds is the sentinel wrapped by every block-selection validation
// failure: a block reaching past its array's extent, a rank mismatch between
// dims and offsets/counts, or a buffer too small for the selection. Callers
// match it with errors.Is through whatever layers wrapped it.
var ErrOutOfBounds = errors.New("selection out of bounds")

// Size returns the number of elements in an array of the given dims (1 for
// an empty dims slice, i.e. a scalar).
func Size(dims []uint64) uint64 {
	n := uint64(1)
	for _, d := range dims {
		n *= d
	}
	return n
}

// Strides returns row-major element strides: the last dimension varies
// fastest and has stride 1.
func Strides(dims []uint64) []uint64 {
	s := make([]uint64, len(dims))
	acc := uint64(1)
	for i := len(dims) - 1; i >= 0; i-- {
		s[i] = acc
		acc *= dims[i]
	}
	return s
}

// CheckBlock validates that the block described by offs/counts lies within
// an array of the given dims.
func CheckBlock(dims, offs, counts []uint64) error {
	if len(offs) != len(dims) || len(counts) != len(dims) {
		return fmt.Errorf("nd: rank mismatch: dims %d, offs %d, counts %d: %w",
			len(dims), len(offs), len(counts), ErrOutOfBounds)
	}
	for i := range dims {
		if offs[i]+counts[i] > dims[i] {
			return fmt.Errorf("nd: block [%d,%d) exceeds dim %d of extent %d: %w",
				offs[i], offs[i]+counts[i], i, dims[i], ErrOutOfBounds)
		}
	}
	return nil
}

// Runs iterates the contiguous byte runs of the hyperslab (offs, counts)
// inside a row-major array of the given dims with esize-byte elements. For
// each run it calls fn with the byte offset inside the global linearization,
// the byte offset inside the block's own linearization, and the run length
// in bytes. Runs visits the block in global-offset order.
//
// A rank-0 block (scalar) yields one run of esize bytes.
func Runs(dims, offs, counts []uint64, esize int, fn func(globalOff, blockOff, n int64) error) error {
	if err := CheckBlock(dims, offs, counts); err != nil {
		return err
	}
	if Size(counts) == 0 {
		return nil
	}
	if len(dims) == 0 {
		return fn(0, 0, int64(esize))
	}
	strides := Strides(dims)
	// The run covers the trailing dimensions whose full extent is selected.
	// At minimum the innermost dimension's count is contiguous.
	runDims := len(dims) - 1
	runElems := counts[len(dims)-1]
	for runDims > 0 && counts[runDims] == dims[runDims] && offs[runDims] == 0 {
		runDims--
		runElems *= counts[runDims]
	}
	// Iterate the outer dimensions [0, runDims); each run spans runElems
	// contiguous elements. runDims == 0 degenerates to a single run.
	idx := make([]uint64, runDims)
	runBytes := int64(runElems) * int64(esize)
	var blockOff int64
	for {
		var globalElem uint64
		for i := 0; i < runDims; i++ {
			globalElem += (offs[i] + idx[i]) * strides[i]
		}
		// Offset within the run's starting dimension.
		globalElem += offs[runDims] * strides[runDims]
		if err := fn(int64(globalElem)*int64(esize), blockOff, runBytes); err != nil {
			return err
		}
		blockOff += runBytes
		// Odometer increment over the outer dims.
		i := runDims - 1
		for ; i >= 0; i-- {
			idx[i]++
			if idx[i] < counts[i] {
				break
			}
			idx[i] = 0
		}
		if i < 0 {
			return nil
		}
	}
}

// CopyIn scatters a block's bytes (local, the block's own row-major
// linearization) into the global row-major linearization (global).
func CopyIn(global []byte, dims []uint64, offs, counts []uint64, local []byte, esize int) error {
	want := int64(Size(counts)) * int64(esize)
	if int64(len(local)) < want {
		return fmt.Errorf("nd: local buffer %d bytes, block needs %d: %w", len(local), want, ErrOutOfBounds)
	}
	return Runs(dims, offs, counts, esize, func(gOff, bOff, n int64) error {
		if gOff+n > int64(len(global)) {
			return fmt.Errorf("nd: run [%d,%d) exceeds global buffer %d", gOff, gOff+n, len(global))
		}
		copy(global[gOff:gOff+n], local[bOff:bOff+n])
		return nil
	})
}

// CopyOut gathers a block from the global linearization into local.
func CopyOut(global []byte, dims []uint64, offs, counts []uint64, local []byte, esize int) error {
	want := int64(Size(counts)) * int64(esize)
	if int64(len(local)) < want {
		return fmt.Errorf("nd: local buffer %d bytes, block needs %d: %w", len(local), want, ErrOutOfBounds)
	}
	return Runs(dims, offs, counts, esize, func(gOff, bOff, n int64) error {
		if gOff+n > int64(len(global)) {
			return fmt.Errorf("nd: run [%d,%d) exceeds global buffer %d", gOff, gOff+n, len(global))
		}
		copy(local[bOff:bOff+n], global[gOff:gOff+n])
		return nil
	})
}

// Intersect computes the overlap of two blocks in the same index space.
// ok is false when they are disjoint.
func Intersect(offsA, cntsA, offsB, cntsB []uint64) (offs, counts []uint64, ok bool) {
	offs, counts = make([]uint64, len(offsA)), make([]uint64, len(offsA))
	if !IntersectInto(offs, counts, offsA, cntsA, offsB, cntsB) {
		return nil, nil, false
	}
	return offs, counts, true
}

// Overlaps reports whether two blocks of the same index space intersect:
// Intersect's ok, with nothing computed and nothing allocated.
func Overlaps(offsA, cntsA, offsB, cntsB []uint64) bool {
	if len(offsA) != len(offsB) || len(cntsA) != len(offsA) || len(cntsB) != len(offsB) {
		return false
	}
	for i := range offsA {
		if min64(offsA[i]+cntsA[i], offsB[i]+cntsB[i]) <= max64(offsA[i], offsB[i]) {
			return false
		}
	}
	return true
}

// IntersectInto is Intersect into caller-owned offs and counts, each at least
// as long as the blocks' rank. It reports whether the blocks overlap; when
// they do not, what it left in offs and counts is meaningless.
func IntersectInto(offs, counts, offsA, cntsA, offsB, cntsB []uint64) bool {
	if len(offsA) != len(offsB) || len(cntsA) != len(offsA) || len(cntsB) != len(offsB) {
		return false
	}
	for i := range offsA {
		lo := max64(offsA[i], offsB[i])
		hi := min64(offsA[i]+cntsA[i], offsB[i]+cntsB[i])
		if hi <= lo {
			return false
		}
		offs[i], counts[i] = lo, hi-lo
	}
	return true
}

// Sub translates absolute block coordinates (offs) into coordinates relative
// to a containing block starting at base.
func Sub(offs, base []uint64) []uint64 {
	out := make([]uint64, len(offs))
	for i := range offs {
		out[i] = offs[i] - base[i]
	}
	return out
}

// PlaceIntersection copies the region (isOffs, isCnts) — given in absolute
// coordinates — from a source block (src buffer laid out as sOffs/sCnts)
// into a destination block (dst buffer laid out as dOffs/dCnts). It is the
// block-to-block scatter used when a read request overlaps stored blocks.
//
// The copy is ONE strided walk from the source layout to the destination
// layout, with no intermediate buffer: the trailing dimensions the region
// spans fully in BOTH layouts fold into one contiguous run, the remaining
// outer dimensions advance an odometer that steps both byte offsets by their
// layout's strides, and every run is bounds-checked against both buffers.
// (CopyOut into a temporary followed by CopyIn computes the same result in
// two passes; the tests keep that composition as the oracle.)
func PlaceIntersection(dst []byte, dOffs, dCnts []uint64, src []byte, sOffs, sCnts,
	isOffs, isCnts []uint64, esize int) error {
	r := len(isCnts)
	if len(isOffs) != r || len(sOffs) != r || len(sCnts) != r || len(dOffs) != r || len(dCnts) != r {
		return fmt.Errorf("nd: rank mismatch: region %d/%d, src %d/%d, dst %d/%d: %w",
			len(isOffs), r, len(sOffs), len(sCnts), len(dOffs), len(dCnts), ErrOutOfBounds)
	}
	// Per-dimension byte strides of both layouts and the odometer, on the
	// stack for every rank the libraries use.
	var stack [3 * 8]int64
	work := stack[:]
	if 3*r > len(work) {
		work = make([]int64, 3*r)
	}
	sStr, dStr, idx := work[:r], work[r:2*r], work[2*r:3*r]
	sAcc, dAcc := int64(esize), int64(esize)
	var sOff, dOff int64 // the region's first byte in each buffer
	empty := false
	for i := r - 1; i >= 0; i-- {
		n := isCnts[i]
		if isOffs[i] < sOffs[i] || n > sCnts[i] || isOffs[i]-sOffs[i] > sCnts[i]-n ||
			isOffs[i] < dOffs[i] || n > dCnts[i] || isOffs[i]-dOffs[i] > dCnts[i]-n {
			return fmt.Errorf("nd: region [%d,%d) of dim %d leaves src block [%d,%d) or dst block [%d,%d): %w",
				isOffs[i], isOffs[i]+n, i, sOffs[i], sOffs[i]+sCnts[i], dOffs[i], dOffs[i]+dCnts[i], ErrOutOfBounds)
		}
		empty = empty || n == 0
		sStr[i], dStr[i] = sAcc, dAcc
		sOff += int64(isOffs[i]-sOffs[i]) * sAcc
		dOff += int64(isOffs[i]-dOffs[i]) * dAcc
		sAcc *= int64(sCnts[i])
		dAcc *= int64(dCnts[i])
	}
	if empty {
		return nil
	}
	// The run covers the innermost dimension plus every trailing dimension
	// that is full in both layouts; outer is the number of dimensions left to
	// the odometer. A rank-0 region (scalar) is one run of esize bytes.
	outer, run := 0, int64(esize)
	if r > 0 {
		outer, run = r-1, int64(isCnts[r-1])*int64(esize)
		for outer > 0 && isCnts[outer] == sCnts[outer] && isCnts[outer] == dCnts[outer] {
			outer--
			run *= int64(isCnts[outer])
		}
	}
	for {
		if sOff < 0 || sOff+run > int64(len(src)) {
			return fmt.Errorf("nd: run [%d,%d) exceeds src buffer %d: %w", sOff, sOff+run, len(src), ErrOutOfBounds)
		}
		if dOff < 0 || dOff+run > int64(len(dst)) {
			return fmt.Errorf("nd: run [%d,%d) exceeds dst buffer %d: %w", dOff, dOff+run, len(dst), ErrOutOfBounds)
		}
		copy(dst[dOff:dOff+run], src[sOff:sOff+run])
		// Odometer increment over the outer dims, carrying both offsets.
		i := outer - 1
		for ; i >= 0; i-- {
			idx[i]++
			if idx[i] < int64(isCnts[i]) {
				sOff += sStr[i]
				dOff += dStr[i]
				break
			}
			sOff -= (idx[i] - 1) * sStr[i]
			dOff -= (idx[i] - 1) * dStr[i]
			idx[i] = 0
		}
		if i < 0 {
			return nil
		}
	}
}

// Decompose splits n ranks into a balanced rank-D processor grid whose
// product is n, preferring near-cubic factorizations (the standard MPI
// dims_create behaviour used by domain-decomposition codes).
func Decompose(n int, rank int) []uint64 {
	if rank <= 0 || n <= 0 {
		return nil
	}
	grid := make([]uint64, rank)
	for i := range grid {
		grid[i] = 1
	}
	// Repeatedly assign the largest prime factor to the smallest grid dim.
	rem := n
	for f := 2; rem > 1; {
		if rem%f == 0 {
			smallest := 0
			for i := 1; i < rank; i++ {
				if grid[i] < grid[smallest] {
					smallest = i
				}
			}
			grid[smallest] *= uint64(f)
			rem /= f
		} else {
			f++
		}
	}
	return grid
}

func min64(a, b uint64) uint64 {
	if a < b {
		return a
	}
	return b
}

func max64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}
