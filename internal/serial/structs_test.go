package serial

import (
	"encoding/binary"
	"math"
	"math/bits"
	"reflect"
	"testing"
	"testing/quick"
)

// particle exercises every supported field kind, including the two things
// the paper says HDF5 compound types cannot do: nested compound types and
// dynamically sized arrays.
type vec3 struct {
	X, Y, Z float64
}

type particle struct {
	ID       uint64
	Label    string
	Mass     float64
	Charge   float32
	Alive    bool
	Pos      vec3      // nested compound type
	History  []vec3    // dynamically sized array of compound type
	Energies []float64 // dynamically sized numeric array (bulk path)
	Flags    [4]uint8  // fixed array
	Rank     int32
	Tag      int16
	Sign     int8
}

func sampleParticle() particle {
	return particle{
		ID:       42,
		Label:    "tracer-α",
		Mass:     1.6726e-27,
		Charge:   1.0,
		Alive:    true,
		Pos:      vec3{1.5, -2.25, 3.75},
		History:  []vec3{{0, 0, 0}, {1, 1, 1}, {2, 4, 8}},
		Energies: []float64{0.5, 1.25, math.Pi, -9.75},
		Flags:    [4]uint8{1, 2, 3, 4},
		Rank:     -7,
		Tag:      -300,
		Sign:     -1,
	}
}

func TestStructRoundTrip(t *testing.T) {
	in := sampleParticle()
	raw, err := MarshalStruct(&in)
	if err != nil {
		t.Fatal(err)
	}
	var out particle
	if err := UnmarshalStruct(raw, &out); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip mismatch:\n in: %+v\nout: %+v", in, out)
	}
}

func TestStructValueArgument(t *testing.T) {
	in := vec3{1, 2, 3}
	raw, err := MarshalStruct(in) // by value, not pointer
	if err != nil {
		t.Fatal(err)
	}
	var out vec3
	if err := UnmarshalStruct(raw, &out); err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Fatalf("got %+v", out)
	}
}

func TestStructRejectsNonStruct(t *testing.T) {
	if _, err := MarshalStruct(42); err == nil {
		t.Error("MarshalStruct(int) accepted")
	}
	if _, err := MarshalStruct((*vec3)(nil)); err == nil {
		t.Error("MarshalStruct(nil ptr) accepted")
	}
	raw, err := MarshalStruct(vec3{})
	if err != nil {
		t.Fatal(err)
	}
	var v vec3
	if err := UnmarshalStruct(raw, v); err == nil {
		t.Error("UnmarshalStruct(non-pointer) accepted")
	}
	var i int
	if err := UnmarshalStruct(raw, &i); err == nil {
		t.Error("UnmarshalStruct(*int) accepted")
	}
}

func TestStructSchemaEvolutionSkipsUnknownFields(t *testing.T) {
	type v2 struct {
		A int64
		B string
		C []float64 // bulk-encoded field the old reader doesn't know
		D vec3      // nested field the old reader doesn't know
		E int32
	}
	type v1 struct {
		A int64
		E int32
	}
	in := v2{A: 7, B: "hello", C: []float64{1, 2, 3}, D: vec3{9, 9, 9}, E: -5}
	raw, err := MarshalStruct(&in)
	if err != nil {
		t.Fatal(err)
	}
	var out v1
	if err := UnmarshalStruct(raw, &out); err != nil {
		t.Fatal(err)
	}
	if out.A != 7 || out.E != -5 {
		t.Fatalf("out = %+v", out)
	}
}

func TestStructMissingFieldsKeepValues(t *testing.T) {
	type small struct{ A int64 }
	type big struct {
		A int64
		B string
	}
	raw, err := MarshalStruct(&small{A: 1})
	if err != nil {
		t.Fatal(err)
	}
	out := big{B: "preserved"}
	if err := UnmarshalStruct(raw, &out); err != nil {
		t.Fatal(err)
	}
	if out.A != 1 || out.B != "preserved" {
		t.Fatalf("out = %+v", out)
	}
}

func TestStructUnexportedFieldsSkipped(t *testing.T) {
	type mixed struct {
		Public  int64
		private string
	}
	in := mixed{Public: 9, private: "hidden"}
	raw, err := MarshalStruct(&in)
	if err != nil {
		t.Fatal(err)
	}
	var out mixed
	if err := UnmarshalStruct(raw, &out); err != nil {
		t.Fatal(err)
	}
	if out.Public != 9 || out.private != "" {
		t.Fatalf("out = %+v", out)
	}
}

func TestStructTypeMismatchRejected(t *testing.T) {
	type a struct{ F float64 }
	type b struct{ F string }
	raw, err := MarshalStruct(&a{F: 1})
	if err != nil {
		t.Fatal(err)
	}
	var out b
	if err := UnmarshalStruct(raw, &out); err == nil {
		t.Error("float64 decoded into string field")
	}
}

func TestStructTruncatedDataRejected(t *testing.T) {
	raw, err := MarshalStruct(sampleParticle())
	if err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{1, len(raw) / 2, len(raw) - 1} {
		var out particle
		if err := UnmarshalStruct(raw[:cut], &out); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
}

func TestStructEmptyCollections(t *testing.T) {
	type c struct {
		S []float64
		T []vec3
		N string
	}
	raw, err := MarshalStruct(&c{})
	if err != nil {
		t.Fatal(err)
	}
	var out c
	if err := UnmarshalStruct(raw, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.S) != 0 || len(out.T) != 0 || out.N != "" {
		t.Fatalf("out = %+v", out)
	}
}

func TestStructDeepNesting(t *testing.T) {
	type level3 struct{ V int64 }
	type level2 struct {
		L []level3
	}
	type level1 struct {
		L []level2
	}
	in := level1{L: []level2{{L: []level3{{1}, {2}}}, {L: []level3{{3}}}}}
	raw, err := MarshalStruct(&in)
	if err != nil {
		t.Fatal(err)
	}
	var out level1
	if err := UnmarshalStruct(raw, &out); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("deep nesting mismatch: %+v", out)
	}
}

// Property: random scalar/slice/string content round-trips bit-exactly.
func TestQuickStructRoundTrip(t *testing.T) {
	type payload struct {
		A int64
		B uint32
		C float64
		D string
		E []float64
		F []int32
		G bool
		H int8
	}
	f := func(a int64, b uint32, c float64, d string, e []float64, g bool, h int8, fRaw []int32) bool {
		in := payload{A: a, B: b, C: c, D: d, E: e, F: fRaw, G: g, H: h}
		raw, err := MarshalStruct(&in)
		if err != nil {
			return false
		}
		var out payload
		if err := UnmarshalStruct(raw, &out); err != nil {
			return false
		}
		// NaN-tolerant compare for the float payloads.
		if math.IsNaN(in.C) != math.IsNaN(out.C) {
			return false
		}
		if !math.IsNaN(in.C) && in.C != out.C {
			return false
		}
		if len(in.E) != len(out.E) || len(in.F) != len(out.F) {
			return false
		}
		for i := range in.E {
			if math.Float64bits(in.E[i]) != math.Float64bits(out.E[i]) {
				return false
			}
		}
		for i := range in.F {
			if in.F[i] != out.F[i] {
				return false
			}
		}
		return in.A == out.A && in.B == out.B && in.D == out.D && in.G == out.G && in.H == out.H
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// The zero-field contract of gob: a field stored at its zero value is not
// transmitted, so it leaves the destination's field as it was. Decoding
// into a zero value (the usual pattern) is unaffected.
func TestStructZeroFieldsLeaveDestination(t *testing.T) {
	type rec struct {
		N int64
		S string
		B bool
		E []float64
		K int64
	}
	raw, err := MarshalStruct(rec{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	out := rec{N: 5, S: "kept", B: true, E: []float64{1}, K: 9}
	if err := UnmarshalStruct(raw, &out); err != nil {
		t.Fatal(err)
	}
	want := rec{N: 5, S: "kept", B: true, E: []float64{1}, K: 3}
	if !reflect.DeepEqual(out, want) {
		t.Fatalf("decode into a filled value = %+v, want %+v", out, want)
	}
	var fresh rec
	if err := UnmarshalStruct(raw, &fresh); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fresh, rec{K: 3}) {
		t.Fatalf("decode into a zero value = %+v", fresh)
	}
}

// gobUint appends gob's encoding of an unsigned integer: one byte below
// 0x80, else the negated byte count and the big-endian bytes.
func gobUint(b []byte, v uint64) []byte {
	if v < 0x80 {
		return append(b, byte(v))
	}
	var be [8]byte
	binary.BigEndian.PutUint64(be[:], v)
	skip := bits.LeadingZeros64(v) / 8
	return append(append(b, byte(256-(8-skip))), be[skip:]...)
}

// gobUintAt decodes the gob unsigned integer at the start of b.
func gobUintAt(b []byte) (v uint64, width int) {
	if b[0] < 0x80 {
		return uint64(b[0]), 1
	}
	width = 1 + int(-int8(b[0]))
	for _, c := range b[1:width] {
		v = v<<8 | uint64(c)
	}
	return v, width
}

// withSliceCount rewrites the payload of a struct whose first field is a
// one-element slice so that the slice claims n elements, keeping the
// message framing valid. The value is the payload's last message: type id,
// field delta 1, element count, then the element and the struct's end.
func withSliceCount(t *testing.T, raw []byte, n uint64) []byte {
	t.Helper()
	last := 0
	for off := 0; off < len(raw); {
		last = off
		l, w := gobUintAt(raw[off:])
		off += w + int(l)
	}
	_, w := gobUintAt(raw[last:])
	body := raw[last+w:]
	_, idw := gobUintAt(body)
	if body[idw] != 1 || body[idw+1] != 1 {
		t.Fatalf("unexpected value message % x", body)
	}
	nb := append(append([]byte(nil), body[:idw+1]...), gobUint(nil, n)...)
	nb = append(nb, body[idw+2:]...)
	out := append(append([]byte(nil), raw[:last]...), gobUint(nil, uint64(len(nb)))...)
	return append(out, nb...)
}

// A payload whose element count cannot be allocated (negative as an int,
// or whose byte size wraps) is an error: never a panic, and never an
// allocation sized by the count.
func TestStructHostileCountsRejected(t *testing.T) {
	type seqOf struct{ S []vec3 }
	type bulkOf struct{ E []float64 }
	gobCount := func(v any, n uint64) func(*testing.T) []byte {
		return func(t *testing.T) []byte {
			raw, err := MarshalStruct(v)
			if err != nil {
				t.Fatal(err)
			}
			return withSliceCount(t, raw, n)
		}
	}
	bytesOf := func(b ...byte) func(*testing.T) []byte {
		return func(*testing.T) []byte { return b }
	}
	cases := []struct {
		name string
		data func(*testing.T) []byte
		out  any
	}{
		// Payloads in the tag-per-value struct format of earlier builds,
		// which an old pool may still hold: a struct whose one field, S,
		// is a sequence of 1<<63 structs...
		{"legacy seq 1<<63", bytesOf(15, 1, 1, 'S', 13, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01), new(seqOf)},
		// ... and of one field, E, holding 1<<61 raw float64s.
		{"legacy bulk 1<<61", bytesOf(15, 1, 1, 'E', 14, 11, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x20), new(bulkOf)},
		{"gob seq 1<<63", gobCount(seqOf{S: []vec3{{X: 2}}}, 1<<63), new(seqOf)},
		{"gob bulk 1<<61", gobCount(bulkOf{E: []float64{2}}, 1<<61), new(bulkOf)},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			data := c.data(t)
			var err error
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("panic: %v", r)
					}
				}()
				err = UnmarshalStruct(data, c.out)
			}()
			if err == nil {
				t.Fatalf("payload % x accepted: %+v", data, c.out)
			}
		})
	}
	// The rewrite itself keeps a well-formed payload: count 1 decodes.
	var one seqOf
	if err := UnmarshalStruct(gobCount(seqOf{S: []vec3{{X: 2}}}, 1)(t), &one); err != nil || len(one.S) != 1 {
		t.Fatalf("count-1 rewrite: %v, %+v", err, one)
	}
}

func FuzzUnmarshalStruct(f *testing.F) {
	raw, err := MarshalStruct(sampleParticle())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(raw)
	f.Add(raw[:len(raw)/2])
	f.Fuzz(func(t *testing.T, data []byte) {
		var out particle
		if err := UnmarshalStruct(data, &out); err != nil {
			return
		}
		if _, err := MarshalStruct(&out); err != nil {
			t.Fatalf("decoded value does not re-encode: %v", err)
		}
	})
}
