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
// why the copy goes first; EncodeSum/bp4 is the shipped path itself and
// EncodeTo/bp4 the same with the CRC step off (the encode/copy ratio bp4's
// CostProfile models).
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
	row := func(name string, f func(dst []byte, d *Datum) uint32) {
		b.Run(name, func(b *testing.B) {
			b.SetBytes(payload)
			for i := 0; i < b.N; i++ {
				sink = f(dst[i%bufs], src[i%bufs])
			}
		})
	}
	row("memcpy", func(dst []byte, d *Datum) uint32 { return uint32(copy(dst[hdr:], d.Payload)) })
	row("three-pass", func(dst []byte, d *Datum) uint32 {
		mn, mx, _ := MinMax(Float64, d.Payload)
		copy(dst[hdr:], d.Payload)
		return checksum.Sum(dst) ^ uint32(mn+mx)
	})
	for _, kb := range []int{4, 8, 16, 32, 64, 128, 256} {
		row(fmt.Sprintf("sweep/tile=%dK", kb), func(dst []byte, d *Datum) uint32 {
			_, _, crc := sweepAt(dst[hdr:], d.Payload, kb<<10, false)
			return crc
		})
	}
	row(fmt.Sprintf("fold-first/tile=%dK", sweepTile>>10), func(dst []byte, d *Datum) uint32 {
		_, _, crc := sweepAt(dst[hdr:], d.Payload, sweepTile, true)
		return crc
	})
	row("EncodeSum/bp4", func(dst []byte, d *Datum) uint32 {
		_, crc, err := bp4.EncodeSum(dst, d, 0)
		if err != nil {
			b.Fatal(err)
		}
		return crc
	})
	row("EncodeTo/bp4", func(dst []byte, d *Datum) uint32 {
		n, err := bp4.EncodeTo(dst, d)
		if err != nil {
			b.Fatal(err)
		}
		return uint32(n)
	})
}

var sink uint32
