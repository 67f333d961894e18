package serial

import (
	"bytes"
	"testing"
)

// The codecs decode bytes that come straight off the (possibly corrupted)
// device, so the loaders rely on a hard contract: arbitrary input never
// panics — it errors, or it decodes into a datum that passes Validate.

func fuzzSeedCorpus(f *testing.F) {
	f.Helper()
	d := &Datum{Type: Float64, Dims: []uint64{2, 3}, Payload: make([]byte, 48)}
	for i := range d.Payload {
		d.Payload[i] = byte(i * 7)
	}
	for _, name := range Names() {
		c, err := Get(name)
		if err != nil {
			f.Fatal(err)
		}
		buf := make([]byte, c.EncodedSize(d))
		if _, err := c.EncodeTo(buf, d); err != nil {
			f.Fatal(err)
		}
		f.Add(buf)
	}
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
}

func FuzzCodecDecode(f *testing.F) {
	fuzzSeedCorpus(f)
	hint := &Datum{Type: Float64, Dims: []uint64{8}}
	f.Fuzz(func(t *testing.T, src []byte) {
		for _, name := range Names() {
			c, err := Get(name)
			if err != nil {
				t.Fatal(err)
			}
			d, err := c.Decode(src, hint)
			if err != nil {
				continue
			}
			if err := d.Validate(); err != nil {
				t.Fatalf("%s: Decode accepted %d bytes but produced invalid datum: %v", name, len(src), err)
			}
		}
	})
}

func FuzzCodecRoundTrip(f *testing.F) {
	f.Add([]byte{}, byte(Uint8), uint32(0), false)
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, byte(Float64), uint32(0), false)
	f.Add(bytes.Repeat([]byte{0xAB}, 96), byte(Int32), uint32(0xdeadbeef), true)
	f.Add(bytes.Repeat([]byte{0, 0, 0xC0, 0x7F}, sweepTile/2+3), byte(Float32), uint32(1), true) // NaNs, past one tile
	f.Fuzz(func(t *testing.T, payload []byte, typeByte byte, crcIn uint32, misalign bool) {
		dt := DType(typeByte)
		if !dt.Fixed() {
			dt = Uint8
		}
		// Trim the payload to a whole number of elements so the datum is
		// valid by construction.
		esize := dt.Size()
		n := len(payload) / esize
		payload = payload[:n*esize]
		dstOff := 0
		if misalign {
			payload, dstOff = append(make([]byte, 1, 1+len(payload)), payload...)[1:], 3
		}
		d := &Datum{Type: dt, Dims: []uint64{uint64(n)}, Payload: payload}
		if err := d.Validate(); err != nil {
			t.Fatalf("constructed datum invalid: %v", err)
		}
		for _, name := range Names() {
			c, err := Get(name)
			if err != nil {
				t.Fatal(err)
			}
			// The one-sweep encode against the three-pass reference.
			if err := checkSweep(c, d, crcIn, dstOff); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			buf, _ := refEncode(name, d, 0)
			hint := &Datum{Type: d.Type, Dims: d.Dims}
			got, err := c.Decode(buf, hint)
			if err != nil {
				t.Fatalf("%s: decode of own encoding: %v", name, err)
			}
			if got.Type != d.Type || !bytes.Equal(got.Payload, d.Payload) {
				t.Fatalf("%s: round trip mismatch (type %v->%v, %d->%d payload bytes)",
					name, d.Type, got.Type, len(d.Payload), len(got.Payload))
			}
		}
	})
}
