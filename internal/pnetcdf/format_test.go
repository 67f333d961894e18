package pnetcdf

import (
	"testing"

	"pmemcpy/internal/pio"
	"pmemcpy/internal/pio/filefmt"
	"pmemcpy/internal/serial"
)

func TestHeaderRoundTrip(t *testing.T) {
	in := []*filefmt.Var{
		{Var: pio.Var{Name: "temp", Type: serial.Float64, GlobalDims: []uint64{4, 5, 6}}, Off: 65536},
	}
	raw, err := format.EncodeHeader(in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := format.DecodeHeader(raw)
	if err != nil {
		t.Fatal(err)
	}
	vi := out["temp"]
	if vi == nil || vi.Off != 65536 || len(vi.GlobalDims) != 3 || vi.GlobalDims[2] != 6 {
		t.Fatalf("decoded %+v", out)
	}
}

func TestHeaderRejectsGarbage(t *testing.T) {
	if _, err := format.DecodeHeader([]byte("not a header")); err == nil {
		t.Fatal("garbage accepted")
	}
	raw, err := format.EncodeHeader([]*filefmt.Var{
		{Var: pio.Var{Name: "v", Type: serial.Int64, GlobalDims: []uint64{2}}, Off: 64},
	})
	if err != nil {
		t.Fatal(err)
	}
	for cut := range raw {
		if _, err := format.DecodeHeader(raw[:cut]); err == nil {
			t.Fatalf("header truncated at %d accepted", cut)
		}
	}
}
