package serial

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"pmemcpy/internal/bytesview"
	"pmemcpy/internal/checksum"
)

// The reference the sweep is held to: the three-pass encode this package used
// to ship — characterize the payload, copy it in behind the header, checksum
// the result — written append-style so it shares no code with the encoders.
// Its characterize follows the NaN rule (NaNs are not values).

func refMinMax[T bytesview.Element](b []byte) (float64, float64) {
	var mn, mx T
	seeded := false
	for _, v := range bytesview.OfCopy[T](b) {
		switch {
		case v != v:
		case !seeded:
			mn, mx, seeded = v, v, true
		case v < mn:
			mn = v
		case v > mx:
			mx = v
		}
	}
	if !seeded {
		return math.NaN(), math.NaN()
	}
	return float64(mn), float64(mx)
}

func refCharacterize(d *Datum) (float64, float64) {
	if len(d.Payload) == 0 {
		return 0, 0
	}
	switch d.Type {
	case Int8:
		return refMinMax[int8](d.Payload)
	case Uint8:
		return refMinMax[uint8](d.Payload)
	case Int16:
		return refMinMax[int16](d.Payload)
	case Uint16:
		return refMinMax[uint16](d.Payload)
	case Int32:
		return refMinMax[int32](d.Payload)
	case Uint32:
		return refMinMax[uint32](d.Payload)
	case Int64:
		return refMinMax[int64](d.Payload)
	case Uint64:
		return refMinMax[uint64](d.Payload)
	case Float32:
		return refMinMax[float32](d.Payload)
	}
	return refMinMax[float64](d.Payload)
}

// refEncode returns the encoding of d under the named codec and, from crc,
// the running CRC over it.
func refEncode(name string, d *Datum, crc uint32) ([]byte, uint32) {
	le := binary.LittleEndian
	var out []byte
	switch name {
	case "bp4":
		out = append(out, 'B', 'P', '4', 1, byte(d.Type), byte(len(d.Dims)))
		if d.Type.Fixed() {
			out = le.AppendUint16(out, bp4FlagStats)
		} else {
			out = le.AppendUint16(out, 0)
		}
		for _, v := range d.Dims {
			out = le.AppendUint64(out, v)
		}
		out = le.AppendUint64(out, uint64(len(d.Payload)))
		if d.Type.Fixed() {
			mn, mx := refCharacterize(d)
			out = le.AppendUint64(out, math.Float64bits(mn))
			out = le.AppendUint64(out, math.Float64bits(mx))
		}
	case "cbin":
		out = append(out, cbinMagic0, cbinMagic1, byte(d.Type))
		out = binary.AppendUvarint(out, uint64(len(d.Dims)))
		for _, v := range d.Dims {
			out = binary.AppendUvarint(out, v)
		}
		out = binary.AppendUvarint(out, uint64(len(d.Payload)))
	case "flat":
		out = le.AppendUint32(out, flatMagic)
		out = append(out, byte(d.Type), byte(len(d.Dims)), 0, 0)
		out = le.AppendUint64(out, uint64(len(d.Payload)))
		for _, v := range d.Dims {
			out = le.AppendUint64(out, v)
		}
	}
	out = append(out, d.Payload...)
	for name == "flat" && len(out)%8 != 0 {
		out = append(out, 0)
	}
	return out, checksum.Update(crc, out)
}

// checkSweep holds one encode to the reference: same bytes, n == EncodedSize,
// the returned CRC is the running CRC over exactly what was written, and
// EncodeTo writes the same bytes. dstOff misaligns the destination.
func checkSweep(c Codec, d *Datum, crcIn uint32, dstOff int) error {
	want, wantCRC := refEncode(c.Name(), d, crcIn)
	if size := c.EncodedSize(d); size != len(want) {
		return fmt.Errorf("EncodedSize = %d, reference wrote %d", size, len(want))
	}
	dst := make([]byte, dstOff+len(want))[dstOff:]
	n, crc, err := c.EncodeSum(dst, d, crcIn)
	if err != nil {
		return err
	}
	if n != len(want) || !bytes.Equal(dst, want) {
		return fmt.Errorf("EncodeSum wrote %d bytes differing from the three-pass reference (%d bytes)", n, len(want))
	}
	if crc != wantCRC || crc != checksum.Update(crcIn, dst[:n]) {
		return fmt.Errorf("EncodeSum CRC = %#x, want %#x", crc, wantCRC)
	}
	plain := make([]byte, dstOff+len(want))[dstOff:]
	if n, err := c.EncodeTo(plain, d); err != nil || n != len(want) || !bytes.Equal(plain, want) {
		return fmt.Errorf("EncodeTo wrote %d bytes (err %v) differing from the reference", n, err)
	}
	return nil
}

// floatPatterns are the payloads where the fold's seeding and tie rules show:
// each overwrites part of a random float payload in place. The first is the
// only one that applies to integer payloads.
var floatPatterns = []struct {
	name  string
	apply func(p []byte, es int)
}{
	{"random", func([]byte, int) {}},
	// Every element is a zero of random sign: min and max are whichever came
	// first, across tile boundaries too.
	{"zeros", func(p []byte, es int) {
		for i := range p {
			if (i+1)%es == 0 {
				p[i] &= 0x80 // the sign bit: little-endian, last byte
			} else {
				p[i] = 0
			}
		}
	}},
	{"nan-first", func(p []byte, es int) { putNaN(p, es, 0) }},
	{"nan-mid", func(p []byte, es int) { putNaN(p, es, len(p)/es/2) }},
}

// putNaN makes element i of a float32/float64 payload a NaN.
func putNaN(p []byte, es, i int) {
	if i*es >= len(p) {
		return
	}
	if es == 4 {
		binary.LittleEndian.PutUint32(p[i*4:], math.Float32bits(float32(math.NaN())))
	} else {
		binary.LittleEndian.PutUint64(p[i*8:], math.Float64bits(math.NaN()))
	}
}

// TestSweepMatchesThreePasses is the sweep's contract: for every codec, fixed
// element type, payload size around the tile boundaries, source/destination
// alignment and incoming CRC, the one-sweep encode is indistinguishable from
// the three-pass reference.
func TestSweepMatchesThreePasses(t *testing.T) {
	for dt := Int8; dt <= Float64; dt++ {
		t.Run(dt.String(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(19))
			es := dt.Size()
			sizes := []int{0, es, sweepTile - es, sweepTile, sweepTile + es, 3*sweepTile + 5*es, 4 << 20}
			if testing.Short() {
				sizes = sizes[:len(sizes)-1]
			}
			patterns := floatPatterns
			if dt != Float32 && dt != Float64 {
				patterns = patterns[:1]
			}
			for _, size := range sizes {
				for _, pat := range patterns {
					// [source offset, destination offset]: both aligned;
					// source misaligned (the fold reads the destination
					// tile, unless the header misaligns that too); both
					// misaligned (the fold reads through its scratch tile).
					for _, off := range [][2]int{{0, 0}, {1, 0}, {1, 3}} {
						payload := make([]byte, off[0]+size)[off[0]:]
						rng.Read(payload)
						pat.apply(payload, es)
						d := &Datum{Type: dt, Dims: []uint64{uint64(size / es)}, Payload: payload}
						for _, c := range allCodecs(t) {
							for _, crcIn := range []uint32{0, 0xdeadbeef} {
								if err := checkSweep(c, d, crcIn, off[1]); err != nil {
									t.Fatalf("%s, %d bytes, %s, offsets %v, crc in %#x: %v", c.Name(), size, pat.name, off, crcIn, err)
								}
							}
						}
					}
				}
			}
		})
	}
}

func encodeStats(t *testing.T, d *Datum) (float64, float64) {
	t.Helper()
	var c bp4Codec
	buf := make([]byte, c.EncodedSize(d))
	if _, err := c.EncodeTo(buf, d); err != nil {
		t.Fatal(err)
	}
	mn, mx, ok, err := c.Stats(buf)
	if err != nil || !ok {
		t.Fatalf("Stats: ok=%v err=%v", ok, err)
	}
	return mn, mx
}

// TestBP4StatsIgnoreNaN: a NaN is not a value. Seeding the range from a
// leading NaN used to store NaN/NaN characteristics — every comparison with
// them is false — and hid the whole block from range queries.
func TestBP4StatsIgnoreNaN(t *testing.T) {
	nan := math.NaN()
	head := make([]float64, 3*sweepTile/8) // first tile all NaN, values after
	tail := make([]float64, 3*sweepTile/8) // values, then whole tiles of NaN
	for i := range head {
		head[i], tail[i] = nan, nan
	}
	head[sweepTile/8+1], head[len(head)-1] = 5, 7
	tail[0], tail[sweepTile/8-1] = 7, 5
	for name, vals := range map[string][]float64{
		"first": {nan, 5, 7}, "mid": {5, nan, 7}, "last": {7, 5, nan}, "first-tile": head, "last-tiles": tail,
	} {
		d := &Datum{Type: Float64, Dims: []uint64{uint64(len(vals))}, Payload: bytesview.Bytes(vals)}
		if mn, mx := encodeStats(t, d); mn != 5 || mx != 7 {
			t.Errorf("%s NaN: Stats = (%g,%g), want (5,7)", name, mn, mx)
		}
		if mn, mx, ok := MinMax(Float64, d.Payload); !ok || mn != 5 || mx != 7 {
			t.Errorf("%s NaN: MinMax = (%g,%g,%v), want (5,7,true)", name, mn, mx, ok)
		}
	}
	f32 := []float32{float32(nan), -2, 3}
	if mn, mx := encodeStats(t, &Datum{Type: Float32, Dims: []uint64{3}, Payload: bytesview.Bytes(f32)}); mn != -2 || mx != 3 {
		t.Errorf("float32 first NaN: Stats = (%g,%g), want (-2,3)", mn, mx)
	}
	// A block with no values has no range: NaN/NaN, which no query matches.
	all := []float64{nan, nan}
	mn, mx := encodeStats(t, &Datum{Type: Float64, Dims: []uint64{2}, Payload: bytesview.Bytes(all)})
	if mn == mn || mx == mx {
		t.Errorf("all-NaN: Stats = (%g,%g), want (NaN,NaN)", mn, mx)
	}
}

// TestMisalignedEncodeAllocatesNothing: the fold reads a misaligned payload
// through the aligned destination tile or a fixed scratch tile, never through
// a payload-sized aligned copy.
func TestMisalignedEncodeAllocatesNothing(t *testing.T) {
	const n = 1 << 20
	payload := make([]byte, n+1)[1:]
	d := &Datum{Type: Float64, Dims: []uint64{n / 8}, Payload: payload}
	for _, c := range allCodecs(t) {
		for _, dstOff := range []int{0, 3} {
			dst := make([]byte, dstOff+c.EncodedSize(d))[dstOff:]
			allocs := testing.AllocsPerRun(5, func() {
				if _, err := c.EncodeTo(dst, d); err != nil {
					t.Fatal(err)
				}
				if _, _, err := c.EncodeSum(dst, d, 0); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Errorf("%s, destination offset %d: misaligned 1 MB encode allocates %v times, want 0", c.Name(), dstOff, allocs)
			}
		}
	}
	if allocs := testing.AllocsPerRun(5, func() { MinMax(Float64, payload) }); allocs != 0 {
		t.Errorf("misaligned 1 MB MinMax allocates %v times, want 0", allocs)
	}
}
