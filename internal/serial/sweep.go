package serial

import (
	"encoding/binary"
	"fmt"
	"math"

	"pmemcpy/internal/bytesview"
	"pmemcpy/internal/checksum"
)

// The payload sweep. All four codecs are "header + verbatim payload", so the
// bytes of a stored block move in exactly one pass from memory instead of
// three. A float64 payload with its fold and CRC on goes through the line
// kernel of sweepFloat64 (fold_amd64.go): each 64-byte line loaded once and
// stored, folded and summed from those registers. Everything else goes
// through the tile loop: per tile, copy first (the wide loads of memmove take
// the cache misses), then fold min/max over the now-hot source tile, then
// advance the running CRC32C over the now-hot destination tile.
//
// sweepTile is picked from BenchmarkStoreSweep (bench_test.go): 4 MB float64
// payloads rotating over 64 MB of buffers, written behind a 40-byte header.
// One run of -benchtime 300x -count 5 with nproc = 2 (a 2-vCPU Xeon, model
// 207: 48 KB L1d and 2 MB L2 per core, 300 MB shared L3, so rows drift with
// the neighbours); median of 5, ms per payload:
//
//	memcpy                0.88
//	three-pass            2.37   characterize, copy, checksum.Sum
//	fold-first/tile=16K   1.66   the fold's loads take the misses
//	sweep/tile=4K         1.47
//	sweep/tile=8K         1.40
//	sweep/tile=16K        1.39   <- shipped
//	sweep/tile=32K        1.35
//	sweep/tile=64K        1.41
//	sweep/tile=128K       1.46
//	sweep/tile=256K       1.38
//	memcpy/256K           0.029  a 256 KiB prefix of each payload
//	lines/cached/256K     0.028  the line kernel, ordinary stores
//	lines/stream/256K     0.023  the line kernel, non-temporal stores
//	tiles/256K            0.051  the tile loop
//	memcpy/2048K          0.31
//	lines/cached/2048K    0.25
//	lines/stream/2048K    0.22
//	tiles/2048K           0.51
//	EncodeTo/bp4          1.23   the tile loop, CRC off
//	EncodeSum/bp4         0.51   the line kernel, streaming
//
// The tile rows lie within their run-to-run spread (64 K read 1.28–1.47), so
// the tile stays 16 K; it now serves every payload but bp4's float64 ones
// with the CRC on. The 256 KiB and 2 MiB rows stay in L3 here, so they show
// the kernel against the tile loop, not what streaming saves: that is
// measured end to end (streamMin). A constant, not an option.
const sweepTile = 16 << 10

// streamMin is the payload from which sweep stores a float64 body past the
// cache: bytesview.StreamMin, the one threshold, from which a load's copy to
// the caller streams too. Measured end to end (EXPERIMENTS "The fused sweep
// rung"), each side of it wins on a workload: ordinary stores for every
// payload made domain3d's 4 MB stores 36 % slower, and streaming every
// payload made ckpt-restart's 500 KiB blocks, read back soon after, load 29 %
// slower. 1 MiB is also where Go's own memmove turns to non-temporal stores.
const streamMin = bytesview.StreamMin

// sweep copies src into dst and returns the running CRC: crc advanced over
// the bytes written when sum is set, crc untouched otherwise. A non-nil r
// accumulates the payload's value range as elements of dt. A float64 payload
// with both on takes sweepFloat64 (on amd64 one load per line); everything
// else the tile loop.
func sweep(dst, src []byte, dt DType, r *valueRange, crc uint32, sum bool) uint32 {
	if r != nil && dt == Float64 && sum {
		return sweepFloat64(dst, src, r, crc, len(src) >= streamMin)
	}
	return sweepTiles(dst, src, dt, r, crc, sum)
}

// sweepTiles is the tile loop: sweep for every payload the line kernel does
// not take, its head and tail, and the oracle it is held to.
func sweepTiles(dst, src []byte, dt DType, r *valueRange, crc uint32, sum bool) uint32 {
	for len(src) > 0 {
		n := min(len(src), sweepTile)
		copy(dst[:n], src[:n])
		if r != nil {
			r.add(folders[dt](src[:n], dst[:n]))
		}
		if sum {
			crc = checksum.Update(crc, dst[:n])
		}
		dst, src = dst[n:], src[n:]
	}
	return crc
}

// format is what a codec adds to the shared encoder: its size and its header.
// header writes the header of d's encoding at the front of dst and returns its
// length, plus — for a header that carries min/max characteristics — the
// 16-byte slot inside it that the encoder fills.
type format interface {
	EncodedSize(d *Datum) int
	header(dst []byte, d *Datum) (hdr int, stats []byte)
}

// encode is the one encoder under every codec's EncodeTo (sum off) and
// EncodeSum: validate, write the header, sweep the payload in behind it, zero
// whatever padding EncodedSize left, the running CRC advancing over all of it.
func encode(c format, dst []byte, d *Datum, crc uint32, sum bool) (int, uint32, error) {
	if err := d.Validate(); err != nil {
		return 0, crc, err
	}
	need := c.EncodedSize(d)
	if len(dst) < need {
		return 0, crc, fmt.Errorf("%w: need %d, have %d", ErrShortBuffer, need, len(dst))
	}
	hdr, stats := c.header(dst, d)
	if stats != nil && len(d.Payload) > sweepTile {
		// The characteristics sit before the payload but are known only
		// after the sweep: the payload's CRC starts from zero, the slot is
		// filled last, and the header's CRC is joined in front.
		r := noRange
		pcrc := sweep(dst[hdr:], d.Payload, d.Type, &r, 0, sum)
		putStats(stats, r.mn, r.mx)
		if sum {
			crc = checksum.Combine(checksum.Update(crc, dst[:hdr]), pcrc, int64(len(d.Payload)))
		}
	} else {
		if stats != nil {
			// One tile is hot either way: characterize it first and the
			// CRC runs straight through, as under any other codec.
			mn, mx, _ := MinMax(d.Type, d.Payload)
			putStats(stats, mn, mx)
		}
		if sum {
			crc = checksum.Update(crc, dst[:hdr])
		}
		crc = sweep(dst[hdr:], d.Payload, d.Type, nil, crc, sum)
	}
	if pad := dst[hdr+len(d.Payload) : need]; len(pad) > 0 {
		clear(pad)
		if sum {
			crc = checksum.Update(crc, pad)
		}
	}
	return need, crc, nil
}

func dropSum(n int, _ uint32, err error) (int, error) { return n, err }

func putStats(slot []byte, mn, mx float64) {
	binary.LittleEndian.PutUint64(slot, math.Float64bits(mn))
	binary.LittleEndian.PutUint64(slot[8:], math.Float64bits(mx))
}

// MinMax returns the value range of a fixed-type payload as float64 — bp4's
// "data characterization", and the scan a range query falls back to under
// codecs that store none. NaNs are not values: the range is that of the other
// elements, NaN/NaN when there are none. ok is false for an empty payload or
// a type without a fixed element size. The payload is read in place, tile by
// tile, whatever its alignment.
func MinMax(dt DType, payload []byte) (mn, mx float64, ok bool) {
	if len(payload) == 0 || !dt.Fixed() {
		return 0, 0, false
	}
	r := noRange
	for len(payload) > 0 {
		n := min(len(payload), sweepTile)
		r.add(folders[dt](payload[:n], nil))
		payload = payload[n:]
	}
	return r.mn, r.mx, true
}

// valueRange is a running min/max over the tiles of one payload. Both ends are
// NaN until a tile with a value in it is added, and stay NaN if none ever is.
type valueRange struct{ mn, mx float64 }

var noRange = valueRange{math.NaN(), math.NaN()}

// add widens r by one tile's range; a tie keeps the earlier element, zero
// signs included, and a tile without values (NaN, NaN) changes nothing.
func (r *valueRange) add(mn, mx float64) {
	if mn < r.mn || r.mn != r.mn {
		r.mn = mn
	}
	if mx > r.mx || r.mx != r.mx {
		r.mx = mx
	}
}

// folders[dt] returns the value range of one tile of dt elements, at most
// sweepTile bytes; NaN, NaN if it holds no values. a and b hold the same bytes
// (the source and destination of the copy; b may be nil): foldTile reads the
// elements from whichever is aligned for dt. Float64 — the one type the
// workloads store — is foldFloat64Tile: on amd64 an SSE2 kernel that reads a
// in place and returns foldTile's bits (fold_amd64.go), elsewhere foldTile.
var folders = [...]func(a, b []byte) (mn, mx float64){
	Int8: foldTile[int8], Uint8: foldTile[uint8],
	Int16: foldTile[int16], Uint16: foldTile[uint16],
	Int32: foldTile[int32], Uint32: foldTile[uint32], Float32: foldTile[float32],
	Int64: foldTile[int64], Uint64: foldTile[uint64], Float64: foldFloat64Tile,
}

func foldTile[T bytesview.Element](a, b []byte) (float64, float64) {
	s, ok := bytesview.TryOf[T](a)
	if !ok && len(b) > 0 {
		s, ok = bytesview.TryOf[T](b)
	}
	if !ok {
		// Neither copy is aligned: a fixed tile of scratch, never a
		// payload-sized temporary.
		var scratch [sweepTile / 8]uint64
		sb := bytesview.Bytes(scratch[:])[:len(a)]
		copy(sb, a)
		s = bytesview.Of[T](sb)
	}
	// Seed from the first element that is a value: every comparison with a
	// NaN is false, so a NaN seed would hide the whole block from range
	// queries.
	i := 0
	for i < len(s) && s[i] != s[i] {
		i++
	}
	if i == len(s) {
		return math.NaN(), math.NaN()
	}
	mn, mx := s[i], s[i]
	for _, v := range s[i+1:] {
		if v < mn {
			mn = v
		}
		if v > mx {
			mx = v
		}
	}
	return float64(mn), float64(mx)
}
