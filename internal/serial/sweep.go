package serial

import (
	"encoding/binary"
	"fmt"
	"math"

	"pmemcpy/internal/bytesview"
	"pmemcpy/internal/checksum"
)

// The payload sweep. All four codecs are "header + verbatim payload", so the
// bytes of a stored block move in exactly one loop: per tile, copy first (the
// wide loads of memmove take the cache misses), then fold min/max over the
// now-hot source tile, then advance the running CRC32C over the now-hot
// destination tile. One pass from memory instead of three.
//
// sweepTile is picked from BenchmarkStoreSweep (bench_test.go): 4 MB float64
// payloads rotating over 64 MB of buffers, written behind a 40-byte header, on
// the 2-vCPU Xeon @ 2.10 GHz builder host (260 MB shared L3, so rows drift
// with the neighbours; median of 5, ms per payload):
//
//	memcpy                0.64
//	three-pass            3.22   characterize, copy, checksum.Sum
//	fold-first/tile=16K   2.42   the fold's narrow loads take the misses
//	sweep/tile=4K         1.65
//	sweep/tile=8K         1.41
//	sweep/tile=16K        1.44   <- shipped
//	sweep/tile=32K        1.34
//	sweep/tile=64K        1.52
//	sweep/tile=128K       1.51
//	sweep/tile=256K       1.50
//
// 8 K to 32 K are one plateau (they swapped places between runs; 16 K was
// best or second in each); below it the per-tile calls show, above it source
// plus destination tile outgrow L1 and then L2. A constant, not an option.
const sweepTile = 16 << 10

// sweep copies src into dst tile by tile and returns the running CRC: crc
// advanced over the bytes written when sum is set, crc untouched otherwise.
// A non-nil r accumulates the payload's value range as elements of dt.
func sweep(dst, src []byte, dt DType, r *valueRange, crc uint32, sum bool) uint32 {
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
// (the source and destination of the copy; b may be nil): the elements are
// read from whichever is aligned for dt.
var folders = [...]func(a, b []byte) (mn, mx float64){
	Int8: foldTile[int8], Uint8: foldTile[uint8],
	Int16: foldTile[int16], Uint16: foldTile[uint16],
	Int32: foldTile[int32], Uint32: foldTile[uint32], Float32: foldTile[float32],
	Int64: foldTile[int64], Uint64: foldTile[uint64], Float64: foldTile[float64],
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
