package serial

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"pmemcpy/internal/bytesview"
)

func TestDTypeSizes(t *testing.T) {
	tests := []struct {
		dt   DType
		size int
	}{
		{Int8, 1}, {Uint8, 1}, {Int16, 2}, {Uint16, 2},
		{Int32, 4}, {Uint32, 4}, {Float32, 4},
		{Int64, 8}, {Uint64, 8}, {Float64, 8},
		{String, 0}, {Bytes, 0}, {Invalid, 0},
	}
	for _, tt := range tests {
		if got := tt.dt.Size(); got != tt.size {
			t.Errorf("%v.Size() = %d, want %d", tt.dt, got, tt.size)
		}
	}
	if !Float64.Fixed() || String.Fixed() {
		t.Error("Fixed() misclassifies types")
	}
	if Invalid.Valid() || DType(200).Valid() || !Int32.Valid() {
		t.Error("Valid() misclassifies types")
	}
	if DType(200).String() != "dtype(200)" {
		t.Errorf("unknown type String() = %q", DType(200).String())
	}
}

func TestDatumElems(t *testing.T) {
	d := &Datum{Type: Float64, Dims: []uint64{3, 4, 5}}
	if got := d.Elems(); got != 60 {
		t.Fatalf("Elems = %d, want 60", got)
	}
	s := &Datum{Type: Int32}
	if got := s.Elems(); got != 1 {
		t.Fatalf("scalar Elems = %d, want 1", got)
	}
}

func TestDatumValidate(t *testing.T) {
	ok := &Datum{Type: Float64, Dims: []uint64{2, 3}, Payload: make([]byte, 48)}
	if err := ok.Validate(); err != nil {
		t.Errorf("valid datum rejected: %v", err)
	}
	bad := &Datum{Type: Float64, Dims: []uint64{2, 3}, Payload: make([]byte, 47)}
	if err := bad.Validate(); !errors.Is(err, ErrBadDatum) {
		t.Errorf("short payload accepted: %v", err)
	}
	badType := &Datum{Type: Invalid}
	if err := badType.Validate(); !errors.Is(err, ErrBadDatum) {
		t.Errorf("invalid type accepted: %v", err)
	}
	badRank := &Datum{Type: Int8, Dims: make([]uint64, MaxDims+1), Payload: nil}
	if err := badRank.Validate(); !errors.Is(err, ErrBadDatum) {
		t.Errorf("excess rank accepted: %v", err)
	}
	dimmedString := &Datum{Type: String, Dims: []uint64{4}, Payload: []byte("abcd")}
	if err := dimmedString.Validate(); !errors.Is(err, ErrBadDatum) {
		t.Errorf("dimensioned string accepted: %v", err)
	}
	// 1<<62 × 4 elements wraps Elems to 0, which an empty payload matched.
	wrapped := &Datum{Type: Float64, Dims: []uint64{1 << 62, 4}, Payload: nil}
	if err := wrapped.Validate(); !errors.Is(err, ErrBadDatum) {
		t.Errorf("shape whose element count wraps accepted: %v", err)
	}
	// Byte size 1<<61 × 8 wraps while the element count does not.
	wrappedBytes := &Datum{Type: Float64, Dims: []uint64{1 << 61}, Payload: nil}
	if err := wrappedBytes.Validate(); !errors.Is(err, ErrBadDatum) {
		t.Errorf("shape whose byte size wraps accepted: %v", err)
	}
	// A zero extent makes the size 0 however large the others are.
	empty := &Datum{Type: Float64, Dims: []uint64{1 << 62, 1 << 62, 0}, Payload: nil}
	if err := empty.Validate(); err != nil {
		t.Errorf("empty shape with huge extents rejected: %v", err)
	}
	str := &Datum{Type: String, Payload: []byte("hello")}
	if err := str.Validate(); err != nil {
		t.Errorf("string datum rejected: %v", err)
	}
}

func TestDatumCloneIndependence(t *testing.T) {
	d := &Datum{Type: Uint8, Dims: []uint64{3}, Payload: []byte{1, 2, 3}}
	c := d.Clone()
	if !c.Equal(d) {
		t.Fatal("clone not equal")
	}
	c.Payload[0] = 99
	c.Dims[0] = 7
	if d.Payload[0] != 1 || d.Dims[0] != 3 {
		t.Fatal("clone aliases original")
	}
}

func TestDatumEqual(t *testing.T) {
	a := &Datum{Type: Int32, Dims: []uint64{2}, Payload: []byte{1, 0, 0, 0, 2, 0, 0, 0}}
	b := a.Clone()
	if !a.Equal(b) {
		t.Fatal("identical data unequal")
	}
	b.Payload[3] = 1
	if a.Equal(b) {
		t.Fatal("different payload equal")
	}
	c := a.Clone()
	c.Dims[0] = 3
	if a.Equal(c) {
		t.Fatal("different dims equal")
	}
	d := a.Clone()
	d.Type = Uint32
	if a.Equal(d) {
		t.Fatal("different type equal")
	}
}

func TestRegistryContents(t *testing.T) {
	names := Names()
	want := []string{"bp4", "cbin", "flat", "raw"}
	if len(names) != len(want) {
		t.Fatalf("Names() = %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("Names() = %v, want %v", names, want)
		}
	}
	if Default().Name() != "bp4" {
		t.Fatalf("Default() = %q, want bp4", Default().Name())
	}
	if _, err := Get("nope"); err == nil {
		t.Fatal("Get(unknown) did not error")
	}
}

func allCodecs(t *testing.T) []Codec {
	t.Helper()
	var cs []Codec
	for _, n := range Names() {
		c, err := Get(n)
		if err != nil {
			t.Fatal(err)
		}
		cs = append(cs, c)
	}
	return cs
}

func roundTrip(t *testing.T, c Codec, d *Datum) *Datum {
	t.Helper()
	buf := make([]byte, c.EncodedSize(d))
	n, err := c.EncodeTo(buf, d)
	if err != nil {
		t.Fatalf("%s: EncodeTo: %v", c.Name(), err)
	}
	// EncodedSize is exact, for every registered codec and every shape the
	// round-trip tests feed through here: the commit engine allocates, persists
	// and publishes a block by the length EncodeTo reports, and a whole value's
	// block must be covered to its allocated end.
	if n != len(buf) {
		t.Fatalf("%s: wrote %d, EncodedSize %d", c.Name(), n, len(buf))
	}
	hint := &Datum{Type: d.Type, Dims: d.Dims}
	got, err := c.Decode(buf, hint)
	if err != nil {
		t.Fatalf("%s: Decode: %v", c.Name(), err)
	}
	return got
}

func TestCodecsRoundTripArray(t *testing.T) {
	vals := []float64{1.5, -2.25, 3.75, 0, 9.125, -100.5}
	d := &Datum{Type: Float64, Dims: []uint64{2, 3}, Payload: bytesview.Bytes(vals)}
	for _, c := range allCodecs(t) {
		got := roundTrip(t, c, d)
		if !got.Equal(d) {
			t.Errorf("%s: round trip mismatch: %+v != %+v", c.Name(), got, d)
		}
	}
}

func TestCodecsRoundTripScalar(t *testing.T) {
	v := []int64{-42}
	d := &Datum{Type: Int64, Payload: bytesview.Bytes(v)}
	for _, c := range allCodecs(t) {
		got := roundTrip(t, c, d)
		if !got.Equal(d) {
			t.Errorf("%s: scalar round trip mismatch", c.Name())
		}
	}
}

func TestCodecsRoundTripString(t *testing.T) {
	d := &Datum{Type: String, Payload: []byte("the S3D combustion code")}
	for _, c := range allCodecs(t) {
		got := roundTrip(t, c, d)
		if !got.Equal(d) {
			t.Errorf("%s: string round trip mismatch: %q", c.Name(), got.Payload)
		}
	}
}

func TestCodecsRoundTripEmptyPayload(t *testing.T) {
	d := &Datum{Type: Bytes, Payload: []byte{}}
	for _, c := range allCodecs(t) {
		got := roundTrip(t, c, d)
		if got.Type != Bytes || len(got.Payload) != 0 {
			t.Errorf("%s: empty payload round trip = %+v", c.Name(), got)
		}
	}
}

func TestCodecsRejectShortBuffer(t *testing.T) {
	vals := []float64{1, 2, 3, 4}
	d := &Datum{Type: Float64, Dims: []uint64{4}, Payload: bytesview.Bytes(vals)}
	for _, c := range allCodecs(t) {
		buf := make([]byte, c.EncodedSize(d)-1)
		if _, err := c.EncodeTo(buf, d); !errors.Is(err, ErrShortBuffer) {
			t.Errorf("%s: short buffer err = %v, want ErrShortBuffer", c.Name(), err)
		}
	}
}

func TestCodecsRejectInvalidDatum(t *testing.T) {
	bad := &Datum{Type: Float64, Dims: []uint64{4}, Payload: make([]byte, 7)}
	for _, c := range allCodecs(t) {
		if _, err := c.EncodeTo(make([]byte, 128), bad); !errors.Is(err, ErrBadDatum) {
			t.Errorf("%s: invalid datum err = %v, want ErrBadDatum", c.Name(), err)
		}
	}
}

func TestSelfDescribingDecodeRejectsGarbage(t *testing.T) {
	garbage := []byte{0xDE, 0xAD, 0xBE, 0xEF, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}
	for _, c := range allCodecs(t) {
		if !c.SelfDescribing() {
			continue
		}
		if _, err := c.Decode(garbage, nil); err == nil {
			t.Errorf("%s: decoded garbage without error", c.Name())
		}
		if _, err := c.Decode(garbage[:2], nil); err == nil {
			t.Errorf("%s: decoded truncated garbage without error", c.Name())
		}
	}
}

func TestSelfDescribingDecodeRejectsTruncatedPayload(t *testing.T) {
	vals := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	d := &Datum{Type: Float64, Dims: []uint64{8}, Payload: bytesview.Bytes(vals)}
	for _, c := range allCodecs(t) {
		if !c.SelfDescribing() {
			continue
		}
		buf := make([]byte, c.EncodedSize(d))
		if _, err := c.EncodeTo(buf, d); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Decode(buf[:len(buf)-9], nil); err == nil {
			t.Errorf("%s: decoded truncated payload without error", c.Name())
		}
	}
}

func TestRawRequiresHint(t *testing.T) {
	raw, err := Get("raw")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := raw.Decode([]byte{1, 2, 3}, nil); err == nil {
		t.Fatal("raw Decode without hint did not error")
	}
	if _, err := raw.Decode([]byte{1, 2, 3}, &Datum{}); err == nil {
		t.Fatal("raw Decode with invalid-type hint did not error")
	}
}

func TestRawDecodeClampsToHintSize(t *testing.T) {
	raw, err := Get("raw")
	if err != nil {
		t.Fatal(err)
	}
	// Storage region may be larger than the datum (allocator rounding); the
	// hint dims define the true extent.
	src := make([]byte, 64)
	for i := range src {
		src[i] = byte(i)
	}
	hint := &Datum{Type: Int32, Dims: []uint64{5}}
	got, err := raw.Decode(src, hint)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Payload) != 20 {
		t.Fatalf("payload len = %d, want 20", len(got.Payload))
	}
}

func TestBP4Stats(t *testing.T) {
	vals := []float64{5, -3, 12, 0.5}
	d := &Datum{Type: Float64, Dims: []uint64{4}, Payload: bytesview.Bytes(vals)}
	var c bp4Codec
	buf := make([]byte, c.EncodedSize(d))
	if _, err := c.EncodeTo(buf, d); err != nil {
		t.Fatal(err)
	}
	mn, mx, ok, err := c.Stats(buf)
	if err != nil || !ok {
		t.Fatalf("Stats: ok=%v err=%v", ok, err)
	}
	if mn != -3 || mx != 12 {
		t.Fatalf("Stats = (%g,%g), want (-3,12)", mn, mx)
	}
}

func TestBP4StatsAbsentForStrings(t *testing.T) {
	d := &Datum{Type: String, Payload: []byte("no stats")}
	var c bp4Codec
	buf := make([]byte, c.EncodedSize(d))
	if _, err := c.EncodeTo(buf, d); err != nil {
		t.Fatal(err)
	}
	_, _, ok, err := c.Stats(buf)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("string block reported characteristics")
	}
}

func TestBP4StatsIntegerTypes(t *testing.T) {
	vals := []int16{-7, 3, 100, -128}
	d := &Datum{Type: Int16, Dims: []uint64{4}, Payload: bytesview.Bytes(vals)}
	var c bp4Codec
	buf := make([]byte, c.EncodedSize(d))
	if _, err := c.EncodeTo(buf, d); err != nil {
		t.Fatal(err)
	}
	mn, mx, ok, err := c.Stats(buf)
	if err != nil || !ok {
		t.Fatalf("Stats: ok=%v err=%v", ok, err)
	}
	if mn != -128 || mx != 100 {
		t.Fatalf("Stats = (%g,%g), want (-128,100)", mn, mx)
	}
}

func TestFlatPayloadAlignment(t *testing.T) {
	var c flatCodec
	for ndims := 0; ndims <= MaxDims; ndims++ {
		if h := flatHeaderSize(ndims); h%8 != 0 {
			t.Errorf("flat header for rank %d = %d bytes, not 8-aligned", ndims, h)
		}
	}
	// Decoded payload must be usable as []float64 when src is aligned.
	vals := []float64{1, 2, 3}
	d := &Datum{Type: Float64, Dims: []uint64{3}, Payload: bytesview.Bytes(vals)}
	buf := make([]byte, c.EncodedSize(d))
	if _, err := c.EncodeTo(buf, d); err != nil {
		t.Fatal(err)
	}
	got, err := c.Decode(buf, nil)
	if err != nil {
		t.Fatal(err)
	}
	view := bytesview.Of[float64](got.Payload) // panics if misaligned
	if view[2] != 3 {
		t.Fatalf("decoded view = %v", view)
	}
}

func TestCostProfiles(t *testing.T) {
	// Relative ordering is what the serializer ablation (E7) relies on:
	// raw < flat <= cbin < bp4 for encode cost.
	get := func(n string) Codec {
		c, err := Get(n)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	rawE, _ := get("raw").CostProfile()
	flatE, _ := get("flat").CostProfile()
	cbinE, _ := get("cbin").CostProfile()
	bp4E, _ := get("bp4").CostProfile()
	if !(rawE < flatE && flatE <= cbinE && cbinE < bp4E) {
		t.Fatalf("encode pass ordering violated: raw=%g flat=%g cbin=%g bp4=%g",
			rawE, flatE, cbinE, bp4E)
	}
}

// Property: every codec round-trips arbitrary float64 arrays of arbitrary
// shape (rank 0-4) bit-exactly.
func TestQuickCodecsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	codecs := allCodecs(t)
	f := func(raw []byte, rank uint8) bool {
		// Build a datum whose payload is a whole number of float64s.
		n := len(raw) / 8 * 8
		payload := raw[:n]
		elems := uint64(n / 8)
		var dims []uint64
		r := int(rank % 4)
		if r > 0 && elems > 0 {
			dims = factorDims(elems, r, rng)
		} else if elems != 1 {
			// Scalars must have exactly one element; use rank 1.
			dims = []uint64{elems}
		}
		d := &Datum{Type: Float64, Dims: dims, Payload: payload}
		if d.Validate() != nil {
			return true // skip shapes the generator couldn't make valid
		}
		for _, c := range codecs {
			buf := make([]byte, c.EncodedSize(d))
			if _, err := c.EncodeTo(buf, d); err != nil {
				return false
			}
			got, err := c.Decode(buf, &Datum{Type: d.Type, Dims: d.Dims})
			if err != nil || !got.Equal(d) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// factorDims splits elems into rank factors whose product is elems.
func factorDims(elems uint64, rank int, rng *rand.Rand) []uint64 {
	dims := make([]uint64, rank)
	for i := range dims {
		dims[i] = 1
	}
	rest := elems
	for d := uint64(2); d*d <= rest; {
		if rest%d == 0 {
			dims[rng.Intn(rank)] *= d
			rest /= d
		} else {
			d++
		}
	}
	dims[rng.Intn(rank)] *= rest
	return dims
}
