package serial

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"unsafe"

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
	{"nan-first", func(p []byte, es int) { putFloat(p, es, 0, math.NaN()) }},
	{"nan-mid", func(p []byte, es int) { putFloat(p, es, len(p)/es/2, math.NaN()) }},
	{"inf", func(p []byte, es int) {
		for i := 2; i < len(p)/es; i += 11 {
			putFloat(p, es, i, math.Inf(1-2*(i%2)))
		}
	}},
	// Non-negative values with zeros of both signs every third element —
	// every lane of the vector fold sees some — so the minimum is a tie
	// between signed zeros and the earliest one must win.
	{"zero-min", func(p []byte, es int) {
		for i := range len(p) / es {
			p[i*es+es-1] &^= 0x80
			if i%3 == 1 {
				zero := 0.0
				if p[i*es]&1 == 1 { // a random byte of the element picks the sign
					zero = math.Copysign(0, -1)
				}
				putFloat(p, es, i, zero)
			}
		}
	}},
	{"all-nan", func(p []byte, es int) {
		for i := range len(p) / es {
			putFloat(p, es, i, math.NaN())
		}
	}},
	// The last element: past the vector kernel's 8-element steps whenever the
	// tile's length is not a multiple of 8 elements.
	{"nan-tail", func(p []byte, es int) { putFloat(p, es, len(p)/es-1, math.NaN()) }},
}

// putFloat sets element i of a float32/float64 payload to v.
func putFloat(p []byte, es, i int, v float64) {
	if i < 0 || i*es >= len(p) {
		return
	}
	if es == 4 {
		binary.LittleEndian.PutUint32(p[i*4:], math.Float32bits(float32(v)))
	} else {
		binary.LittleEndian.PutUint64(p[i*8:], math.Float64bits(v))
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
			sizes := []int{0, es, 7 * es, 8 * es, 9 * es, 63 * es, 65 * es, sweepTile - es, sweepTile, sweepTile + es, 3*sweepTile + 5*es, 4 << 20}
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

// checkKernel holds sweep's float64 path — on amd64 the line kernel between
// two stretches of tile loop — to the tile loop alone: the same bytes stored,
// the same running CRC from crcIn and the same fold bits. dstOff places the
// destination dstOff bytes past a 64-byte boundary.
func checkKernel(src []byte, dstOff int, crcIn uint32) error {
	buf := make([]byte, 64+dstOff+len(src))
	base := int(-uintptr(unsafe.Pointer(unsafe.SliceData(buf))) & 63)
	dst := buf[base+dstOff:]
	want := make([]byte, len(src))
	r, wr := noRange, noRange
	crc := sweep(dst, src, Float64, &r, crcIn, true)
	wcrc := sweepTiles(want, src, Float64, &wr, crcIn, true)
	switch {
	case !bytes.Equal(dst[:len(src)], want):
		return fmt.Errorf("stored bytes differ from the tile loop's")
	case crc != wcrc:
		return fmt.Errorf("CRC = %#x, tile loop %#x", crc, wcrc)
	case !sameFold(r.mn, r.mx, wr.mn, wr.mx):
		return fmt.Errorf("fold = (%v %#x, %v %#x), tile loop (%v %#x, %v %#x)",
			r.mn, math.Float64bits(r.mn), r.mx, math.Float64bits(r.mx),
			wr.mn, math.Float64bits(wr.mn), wr.mx, math.Float64bits(wr.mx))
	}
	return nil
}

// TestSweepKernelMatchesTileLoop is the line kernel's contract, beside the
// sweep's: at every destination offset from a 64-byte boundary (a head of
// whole elements runs the kernel, any other the tile loop), source offsets
// 0–7, sizes around whole three-line steps, around the 1 MiB streaming
// threshold and over several kernel calls, every fold pattern and two
// incoming CRCs, sweep's float64 path stores, sums and folds exactly what the
// tile loop does.
func TestSweepKernelMatchesTileLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	const step = 3 * 64
	type span struct {
		sizes    []int
		dst, src []int
		patterns int // how many of floatPatterns
	}
	all := func(n int) []int {
		s := make([]int, n)
		for i := range s {
			s[i] = i
		}
		return s
	}
	spans := []span{
		{[]int{step - 8, step, step + 8, 2*step - 8, 2*step + 8, 5 * step, 5*step + 8, 5*step + 64 + 8}, all(64), all(8), len(floatPatterns)},
		{[]int{3*sweepTile + 5*8}, all(64), []int{0, 3}, 2},
		{[]int{streamMin - 8, streamMin, streamMin + 8}, []int{0, 3, 8, 40, 56}, []int{0, 5}, len(floatPatterns)},
		// Several kernel calls of three 256 KiB strands each, then a short
		// one: a 4 MiB block, and two whole calls and a few lines more.
		{[]int{4 << 20, 6*256<<10 + 5*step + 8}, []int{0, 8, 40}, []int{0, 5}, len(floatPatterns)},
	}
	if testing.Short() {
		spans[2].dst, spans[2].patterns = []int{0, 40}, 2
		spans[3].dst, spans[3].patterns = []int{0}, 2
	}
	for _, sp := range spans {
		for _, size := range sp.sizes {
			payload := make([]byte, 8+size)
			for _, pat := range floatPatterns[:sp.patterns] {
				for _, srcOff := range sp.src {
					src := payload[srcOff : srcOff+size]
					rng.Read(src)
					pat.apply(src, 8)
					for _, dstOff := range sp.dst {
						for _, crcIn := range []uint32{0, 0xdeadbeef} {
							if err := checkKernel(src, dstOff, crcIn); err != nil {
								t.Fatalf("%d bytes, %s, source offset %d, destination offset %d, crc in %#x: %v",
									size, pat.name, srcOff, dstOff, crcIn, err)
							}
						}
					}
				}
			}
		}
	}
}

// FuzzSweep is TestSweepKernelMatchesTileLoop over arbitrary bytes, offsets
// and incoming CRC; the payload is data repeated rep times, so that inputs
// the fuzzer keeps short still span several three-line steps.
func FuzzSweep(f *testing.F) {
	f.Add(bytesview.Bytes([]float64{math.Copysign(0, -1), 1, 0, math.NaN(), -2, 0, 3, math.Inf(1), 5}), uint8(8), uint8(0), uint8(40), uint32(0))
	f.Add(bytes.Repeat([]byte{0, 0, 0, 0, 0, 0, 0xf8, 0x7f}, 25), uint8(1), uint8(3), uint8(16), uint32(0xdeadbeef))
	f.Fuzz(func(t *testing.T, data []byte, rep, srcOff, dstOff uint8, crcIn uint32) {
		p := bytes.Repeat(data, 1+int(rep)%64)
		p = p[min(int(srcOff%8), len(p)):]
		p = p[:len(p)&^7]
		if err := checkKernel(p, int(dstOff%64), crcIn); err != nil {
			t.Fatalf("%d bytes, destination offset %d: %v", len(p), dstOff%64, err)
		}
	})
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
