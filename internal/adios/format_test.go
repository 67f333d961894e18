package adios

import (
	"testing"

	"pmemcpy/internal/pio"
	"pmemcpy/internal/pio/filefmt"
	"pmemcpy/internal/serial"
)

func sampleBlocks() []filefmt.Block {
	return []filefmt.Block{
		{Name: "rect0", Offs: []uint64{0, 0}, Counts: []uint64{4, 8}, FileOff: 64, StoredLen: 300},
		{Name: "rect0", Offs: []uint64{4, 0}, Counts: []uint64{4, 8}, FileOff: 364, StoredLen: 300},
		{Name: "rect1", Offs: []uint64{0}, Counts: []uint64{128}, FileOff: 664, StoredLen: 1100},
	}
}

func TestBlockTableRoundTrip(t *testing.T) {
	in := sampleBlocks()
	raw := format.EncodeTable(in)
	out, err := format.DecodeTable(raw)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("decoded %d blocks, want %d", len(out), len(in))
	}
	for i := range in {
		a, b := in[i], out[i]
		if a.Name != b.Name || a.FileOff != b.FileOff || a.StoredLen != b.StoredLen {
			t.Fatalf("block %d mismatch: %+v vs %+v", i, a, b)
		}
		for d := range a.Offs {
			if a.Offs[d] != b.Offs[d] || a.Counts[d] != b.Counts[d] {
				t.Fatalf("block %d dims mismatch", i)
			}
		}
	}
}

func TestIndexRoundTrip(t *testing.T) {
	vars := []*filefmt.Var{
		{Var: pio.Var{Name: "rect0", Type: serial.Float64, GlobalDims: []uint64{8, 8}}},
		{Var: pio.Var{Name: "rect1", Type: serial.Int32, GlobalDims: []uint64{128}}},
	}
	raw, err := format.EncodeIndex(vars, "", sampleBlocks())
	if err != nil {
		t.Fatal(err)
	}
	gotVars, _, gotBlocks, err := format.DecodeIndex(raw)
	if err != nil {
		t.Fatal(err)
	}
	if len(gotVars) != 2 || len(gotBlocks["rect0"]) != 2 || len(gotBlocks["rect1"]) != 1 {
		t.Fatalf("decoded vars=%d rect0=%d rect1=%d",
			len(gotVars), len(gotBlocks["rect0"]), len(gotBlocks["rect1"]))
	}
	if gotVars["rect1"].Type != serial.Int32 || gotVars["rect0"].GlobalDims[1] != 8 {
		t.Fatalf("vars = %+v", gotVars)
	}
	// Blocks within a variable come back in file-offset order.
	if gotBlocks["rect0"][0].FileOff > gotBlocks["rect0"][1].FileOff {
		t.Fatal("blocks not in file-offset order")
	}
}

func TestIndexRejectsOrphanBlocks(t *testing.T) {
	vars := []*filefmt.Var{{Var: pio.Var{Name: "known", Type: serial.Float64, GlobalDims: []uint64{4}}}}
	blocks := []filefmt.Block{{Name: "unknown", Offs: []uint64{0}, Counts: []uint64{4}}}
	if _, err := format.EncodeIndex(vars, "", blocks); err == nil {
		t.Fatal("orphan blocks accepted")
	}
}

func TestIndexTruncationRejected(t *testing.T) {
	vars := []*filefmt.Var{{Var: pio.Var{Name: "v", Type: serial.Float64, GlobalDims: []uint64{4}}}}
	raw, err := format.EncodeIndex(vars, "", sampleBlocks()[:0])
	if err != nil {
		t.Fatal(err)
	}
	for cut := range raw {
		if _, _, _, err := format.DecodeIndex(raw[:cut]); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
}
