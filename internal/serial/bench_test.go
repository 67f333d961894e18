package serial

import (
	"fmt"
	"math/rand"
	"testing"

	"pmemcpy/internal/bytesview"
	"pmemcpy/internal/checksum"
)

// benchDatum builds a 1 MB float64 array datum.
func benchDatum() *Datum {
	vals := make([]float64, 128<<10)
	for i := range vals {
		vals[i] = float64(i) * 0.5
	}
	return &Datum{Type: Float64, Dims: []uint64{128 << 10}, Payload: bytesview.Bytes(vals)}
}

// BenchmarkEncode measures real (wall-time) encode throughput per codec —
// this is host performance of the codec implementations themselves, separate
// from the virtual-time model.
func BenchmarkEncode(b *testing.B) {
	d := benchDatum()
	for _, name := range Names() {
		c, err := Get(name)
		if err != nil {
			b.Fatal(err)
		}
		buf := make([]byte, c.EncodedSize(d))
		b.Run(name, func(b *testing.B) {
			b.SetBytes(int64(len(d.Payload)))
			for i := 0; i < b.N; i++ {
				if _, err := c.EncodeTo(buf, d); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDecode measures decode throughput per codec (zero-copy codecs
// should be near-free).
func BenchmarkDecode(b *testing.B) {
	d := benchDatum()
	for _, name := range Names() {
		c, err := Get(name)
		if err != nil {
			b.Fatal(err)
		}
		buf := make([]byte, c.EncodedSize(d))
		if _, err := c.EncodeTo(buf, d); err != nil {
			b.Fatal(err)
		}
		hint := &Datum{Type: d.Type, Dims: d.Dims}
		b.Run(name, func(b *testing.B) {
			b.SetBytes(int64(len(d.Payload)))
			for i := 0; i < b.N; i++ {
				if _, err := c.Decode(buf, hint); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEncodedSize measures header-size computation (hot on the store
// path: called once per block to size the PMEM allocation).
func BenchmarkEncodedSize(b *testing.B) {
	d := benchDatum()
	for _, name := range Names() {
		c, err := Get(name)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if c.EncodedSize(d) <= 0 {
					b.Fatal("bad size")
				}
			}
		})
	}
}

// BenchmarkBP4Stats isolates the min/max characterization pass that makes
// BP4 the most expensive encoder.
func BenchmarkBP4Stats(b *testing.B) {
	d := benchDatum()
	b.SetBytes(int64(len(d.Payload)))
	for i := 0; i < b.N; i++ {
		mn, mx, _ := MinMax(d.Type, d.Payload)
		if mn > mx {
			b.Fatal("impossible stats")
		}
	}
}

func BenchmarkEncodeSizesSweep(b *testing.B) {
	c := Default()
	for _, kb := range []int{4, 64, 1024} {
		vals := make([]float64, kb<<10/8)
		d := &Datum{Type: Float64, Dims: []uint64{uint64(len(vals))}, Payload: bytesview.Bytes(vals)}
		buf := make([]byte, c.EncodedSize(d))
		b.Run(fmt.Sprintf("%dKB", kb), func(b *testing.B) {
			b.SetBytes(int64(len(d.Payload)))
			for i := 0; i < b.N; i++ {
				if _, err := c.EncodeTo(buf, d); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFold is the fold's own rung: one hot 16 KB tile of random float64
// values, folded by foldTile (go) and by folders[Float64] (kernel: the SSE2
// kernel on amd64, the same Go fold elsewhere), reported in ns per element.
// zero-last is the same tile with its last element 0, the kernel's worst
// case: a minimum of zero sends it scanning for the tile's first zero.
func BenchmarkFold(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	vals := make([]float64, sweepTile/8)
	for i := range vals {
		vals[i] = rng.Float64()
	}
	zeroLast := append([]float64(nil), vals...)
	zeroLast[len(zeroLast)-1] = 0
	for _, row := range []struct {
		name string
		fold func(a, b []byte) (float64, float64)
		vals []float64
	}{
		{"go", foldTile[float64], vals},
		{"kernel", folders[Float64], vals},
		{"go/zero-last", foldTile[float64], zeroLast},
		{"kernel/zero-last", folders[Float64], zeroLast},
	} {
		tile := bytesview.Bytes(row.vals)
		b.Run(row.name, func(b *testing.B) {
			b.SetBytes(sweepTile)
			for b.Loop() {
				mn, _ := row.fold(tile, nil)
				sink = uint32(mn)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(row.vals)), "ns/elem")
		})
	}
}

// sweepAt is the payload sweep with its two design choices as parameters —
// tile size, and whether the tile is copied before or after it is folded — so
// BenchmarkStoreSweep can put the shipped pair beside the alternatives.
func sweepAt(dst, src []byte, tile int, foldFirst bool) (float64, float64, uint32) {
	r := noRange
	var crc uint32
	for len(src) > 0 {
		n := min(len(src), tile)
		if foldFirst {
			r.add(folders[Float64](src[:n], nil))
			copy(dst[:n], src[:n])
		} else {
			copy(dst[:n], src[:n])
			r.add(folders[Float64](src[:n], dst[:n]))
		}
		crc = checksum.Update(crc, dst[:n])
		dst, src = dst[n:], src[n:]
	}
	return r.mn, r.mx, crc
}

// BenchmarkStoreSweep is the rung sweepTile is picked from: what it costs to
// move one 4 MB float64 payload into a block with its min/max and CRC32C
// known at the end. Payloads rotate over 64 MB of source and destination
// buffers, so no row runs out of L2, and every row writes where the payload
// of a bp4 block lands — behind a 40-byte header, so source and destination
// are mutually misaligned as they are in a pool. memcpy is the floor;
// three-pass is the encode this package used to do (characterize, copy, then
// checksum the destination); the sweep rows vary the tile; fold-first shows
// why the copy goes first. At 256 KiB and 2 MiB (a prefix of each payload)
// the line kernel runs with ordinary (lines/cached) and non-temporal
// (lines/stream) stores beside the tile loop (tiles) and memcpy; sweep picks
// the store kind by streamMin. EncodeSum/bp4 is the shipped path itself — at
// 4 MB the streaming line kernel — and EncodeTo/bp4 the tile loop with the
// CRC step off (the encode/copy ratio bp4's CostProfile models).
func BenchmarkStoreSweep(b *testing.B) {
	const payload, bufs = 4 << 20, 8
	bp4 := Default()
	rng := rand.New(rand.NewSource(1))
	var src [bufs]*Datum
	var dst [bufs][]byte
	for i := range src {
		vals := make([]float64, payload/8)
		for j := range vals {
			vals[j] = rng.Float64()
		}
		src[i] = &Datum{Type: Float64, Dims: []uint64{payload / 8}, Payload: bytesview.Bytes(vals)}
		dst[i] = make([]byte, bp4.EncodedSize(src[i]))
	}
	hdr := len(dst[0]) - payload
	row := func(name string, n int, f func(dst []byte, d *Datum) uint32) {
		b.Run(name, func(b *testing.B) {
			b.SetBytes(int64(n))
			for i := 0; i < b.N; i++ {
				sink = f(dst[i%bufs], src[i%bufs])
			}
		})
	}
	row("memcpy", payload, func(dst []byte, d *Datum) uint32 { return uint32(copy(dst[hdr:], d.Payload)) })
	row("three-pass", payload, func(dst []byte, d *Datum) uint32 {
		mn, mx, _ := MinMax(Float64, d.Payload)
		copy(dst[hdr:], d.Payload)
		return checksum.Sum(dst) ^ uint32(mn+mx)
	})
	for _, kb := range []int{4, 8, 16, 32, 64, 128, 256} {
		row(fmt.Sprintf("sweep/tile=%dK", kb), payload, func(dst []byte, d *Datum) uint32 {
			_, _, crc := sweepAt(dst[hdr:], d.Payload, kb<<10, false)
			return crc
		})
	}
	row(fmt.Sprintf("fold-first/tile=%dK", sweepTile>>10), payload, func(dst []byte, d *Datum) uint32 {
		_, _, crc := sweepAt(dst[hdr:], d.Payload, sweepTile, true)
		return crc
	})
	for _, n := range []int{256 << 10, 2 << 20} {
		row(fmt.Sprintf("memcpy/%dK", n>>10), n, func(dst []byte, d *Datum) uint32 {
			return uint32(copy(dst[hdr:], d.Payload[:n]))
		})
		for _, stream := range []bool{false, true} {
			kind := "cached"
			if stream {
				kind = "stream"
			}
			row(fmt.Sprintf("lines/%s/%dK", kind, n>>10), n, func(dst []byte, d *Datum) uint32 {
				r := noRange
				return sweepFloat64(dst[hdr:], d.Payload[:n], &r, 0, stream)
			})
		}
		row(fmt.Sprintf("tiles/%dK", n>>10), n, func(dst []byte, d *Datum) uint32 {
			r := noRange
			return sweepTiles(dst[hdr:], d.Payload[:n], Float64, &r, 0, true)
		})
	}
	row("EncodeSum/bp4", payload, func(dst []byte, d *Datum) uint32 {
		_, crc, err := bp4.EncodeSum(dst, d, 0)
		if err != nil {
			b.Fatal(err)
		}
		return crc
	})
	row("EncodeTo/bp4", payload, func(dst []byte, d *Datum) uint32 {
		n, err := bp4.EncodeTo(dst, d)
		if err != nil {
			b.Fatal(err)
		}
		return uint32(n)
	})
}

var sink uint32
