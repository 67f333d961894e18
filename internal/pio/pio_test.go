package pio_test

import (
	"testing"

	"pmemcpy/internal/core"
	"pmemcpy/internal/pio"
	"pmemcpy/internal/serial"
)

// TestVarValidate is the table under every library's DefineVar: a variable
// needs a name, a fixed-size element type, and a rank between 1 and
// serial.MaxDims.
func TestVarValidate(t *testing.T) {
	rank := func(n int) []uint64 { return make([]uint64, n) }
	cases := []struct {
		name string
		v    pio.Var
		ok   bool
	}{
		{"scalar-like 1-D", pio.Var{Name: "a", Type: serial.Float64, GlobalDims: []uint64{1}}, true},
		{"3-D", pio.Var{Name: "rect0", Type: serial.Int32, GlobalDims: []uint64{4, 5, 6}}, true},
		{"max rank", pio.Var{Name: "a", Type: serial.Uint8, GlobalDims: rank(serial.MaxDims)}, true},
		{"zero extent is a shape, not a rank", pio.Var{Name: "a", Type: serial.Float32, GlobalDims: []uint64{0}}, true},
		{"empty name", pio.Var{Type: serial.Float64, GlobalDims: []uint64{1}}, false},
		{"string elements", pio.Var{Name: "a", Type: serial.String, GlobalDims: []uint64{1}}, false},
		{"byte-blob elements", pio.Var{Name: "a", Type: serial.Bytes, GlobalDims: []uint64{1}}, false},
		{"invalid type", pio.Var{Name: "a", Type: serial.Invalid, GlobalDims: []uint64{1}}, false},
		{"no dims", pio.Var{Name: "a", Type: serial.Float64}, false},
		{"rank past MaxDims", pio.Var{Name: "a", Type: serial.Float64, GlobalDims: rank(serial.MaxDims + 1)}, false},
	}
	for _, tc := range cases {
		if err := tc.v.Validate(); (err == nil) != tc.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
	if got := (pio.Var{Type: serial.Int16}).ElemSize(); got != 2 {
		t.Errorf("ElemSize(int16) = %d, want 2", got)
	}
}

// TestConfigureAppliesOnlyNonZero is the merge rule of pio.Configurable, held
// on its one implementation (pMEMCPY's library): a Capabilities field at its
// zero value leaves the library's own setting alone, a non-zero one replaces
// it, and two Configure calls compose — the second keeps what the first set
// unless it sets the same field.
func TestConfigureAppliesOnlyNonZero(t *testing.T) {
	base := core.Library{Codec: "raw", MapSync: true, Parallelism: 3, VerifyReads: core.VerifySampled, CoalesceWindow: 5}
	with := func(f func(*core.Library)) core.Library {
		l := base
		f(&l)
		return l
	}
	cases := []struct {
		name string
		caps pio.Capabilities
		want core.Library
	}{
		{"empty set", pio.Capabilities{}, base},
		{"Parallelism", pio.Capabilities{Parallelism: 8}, with(func(l *core.Library) { l.Parallelism = 8 })},
		{"ReadParallelism", pio.Capabilities{ReadParallelism: 2}, with(func(l *core.Library) { l.ReadParallelism = 2 })},
		{"Metrics", pio.Capabilities{Metrics: true}, with(func(l *core.Library) { l.Metrics = true })},
		{"VerifyReads", pio.Capabilities{VerifyReads: 2}, with(func(l *core.Library) { l.VerifyReads = core.VerifyFull })},
		{"Async", pio.Capabilities{Async: true}, with(func(l *core.Library) { l.Async = true })},
		{"CoalesceWindow", pio.Capabilities{CoalesceWindow: 9}, with(func(l *core.Library) { l.CoalesceWindow = 9 })},
		{"Pools", pio.Capabilities{Pools: 4}, with(func(l *core.Library) { l.Pools = 4 })},
	}
	for _, tc := range cases {
		if got := base.Configure(tc.caps); got != tc.want {
			t.Errorf("%s: Configure = %+v, want %+v", tc.name, got, tc.want)
		}
	}

	first := base.Configure(pio.Capabilities{Parallelism: 8, Async: true})
	got := first.(core.Library).Configure(pio.Capabilities{Parallelism: 2, Pools: 4})
	want := with(func(l *core.Library) { l.Parallelism, l.Async, l.Pools = 2, true, 4 })
	if got != want {
		t.Errorf("two Configure calls: %+v, want %+v", got, want)
	}
}
