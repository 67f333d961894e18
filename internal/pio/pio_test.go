package pio

import (
	"testing"

	"pmemcpy/internal/serial"
)

// TestVarValidate is the table under every library's DefineVar: a variable
// needs a name, a fixed-size element type, and a rank between 1 and
// serial.MaxDims.
func TestVarValidate(t *testing.T) {
	rank := func(n int) []uint64 { return make([]uint64, n) }
	cases := []struct {
		name string
		v    Var
		ok   bool
	}{
		{"scalar-like 1-D", Var{Name: "a", Type: serial.Float64, GlobalDims: []uint64{1}}, true},
		{"3-D", Var{Name: "rect0", Type: serial.Int32, GlobalDims: []uint64{4, 5, 6}}, true},
		{"max rank", Var{Name: "a", Type: serial.Uint8, GlobalDims: rank(serial.MaxDims)}, true},
		{"zero extent is a shape, not a rank", Var{Name: "a", Type: serial.Float32, GlobalDims: []uint64{0}}, true},
		{"empty name", Var{Type: serial.Float64, GlobalDims: []uint64{1}}, false},
		{"string elements", Var{Name: "a", Type: serial.String, GlobalDims: []uint64{1}}, false},
		{"byte-blob elements", Var{Name: "a", Type: serial.Bytes, GlobalDims: []uint64{1}}, false},
		{"invalid type", Var{Name: "a", Type: serial.Invalid, GlobalDims: []uint64{1}}, false},
		{"no dims", Var{Name: "a", Type: serial.Float64}, false},
		{"rank past MaxDims", Var{Name: "a", Type: serial.Float64, GlobalDims: rank(serial.MaxDims + 1)}, false},
	}
	for _, tc := range cases {
		if err := tc.v.Validate(); (err == nil) != tc.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
	if got := (Var{Type: serial.Int16}).ElemSize(); got != 2 {
		t.Errorf("ElemSize(int16) = %d, want 2", got)
	}
}
