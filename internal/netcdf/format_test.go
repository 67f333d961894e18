package netcdf

import (
	"testing"

	"pmemcpy/internal/pio"
	"pmemcpy/internal/pio/filefmt"
	"pmemcpy/internal/serial"
)

func TestHeaderRoundTrip(t *testing.T) {
	in := []*filefmt.Var{
		{Var: pio.Var{Name: "a", Type: serial.Float64, GlobalDims: []uint64{10, 20}}, Off: 65536},
		{Var: pio.Var{Name: "b", Type: serial.Int32, GlobalDims: []uint64{7}}, Off: 1665536},
	}
	raw, err := format.EncodeHeader(in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := format.DecodeHeader(raw)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 {
		t.Fatalf("decoded %d vars", len(out))
	}
	if out["a"].Off != 65536 || out["b"].Type != serial.Int32 || out["a"].GlobalDims[1] != 20 {
		t.Fatalf("decoded %+v", out)
	}
}

func TestHeaderRejectsBadMagicAndTruncation(t *testing.T) {
	raw, err := format.EncodeHeader([]*filefmt.Var{
		{Var: pio.Var{Name: "v", Type: serial.Float64, GlobalDims: []uint64{4}}, Off: 64},
	})
	if err != nil {
		t.Fatal(err)
	}
	bad := append([]byte(nil), raw...)
	bad[0] ^= 0xFF
	if _, err := format.DecodeHeader(bad); err == nil {
		t.Error("bad magic accepted")
	}
	for cut := range raw {
		if _, err := format.DecodeHeader(raw[:cut]); err == nil {
			t.Errorf("header truncated at %d accepted", cut)
		}
	}
}

func TestChunkIndexRoundTrip(t *testing.T) {
	vars := []*filefmt.Var{
		{Var: pio.Var{Name: "c", Type: serial.Float64, GlobalDims: []uint64{16, 16}}},
	}
	chunks := []filefmt.Block{
		{Name: "c", Offs: []uint64{0, 0}, Counts: []uint64{8, 16}, FileOff: 64, StoredLen: 700, RawLen: 1024, Filtered: true},
		{Name: "c", Offs: []uint64{8, 0}, Counts: []uint64{8, 16}, FileOff: 764, StoredLen: 1024, RawLen: 1024},
	}
	raw, err := chunkFormat.EncodeIndex(vars, "shuffle+rle", chunks)
	if err != nil {
		t.Fatal(err)
	}
	gotVars, flt, gotChunks, err := chunkFormat.DecodeIndex(raw)
	if err != nil {
		t.Fatal(err)
	}
	if flt != "shuffle+rle" || len(gotVars) != 1 || len(gotChunks["c"]) != 2 {
		t.Fatalf("flt=%q vars=%d chunks=%d", flt, len(gotVars), len(gotChunks["c"]))
	}
	if !gotChunks["c"][0].Filtered || gotChunks["c"][0].RawLen != 1024 {
		t.Fatalf("chunk[0] = %+v", gotChunks["c"][0])
	}
	if gotChunks["c"][1].Filtered {
		t.Fatal("chunk[1] claims filtered")
	}
	for cut := range raw {
		if _, _, _, err := chunkFormat.DecodeIndex(raw[:cut]); err == nil {
			t.Errorf("index truncated at %d accepted", cut)
		}
	}
}

func TestChunkIndexRejectsOrphans(t *testing.T) {
	chunks := []filefmt.Block{{Name: "ghost", Offs: []uint64{0}, Counts: []uint64{4}}}
	if _, err := chunkFormat.EncodeIndex(nil, "", chunks); err == nil {
		t.Fatal("orphan chunks accepted")
	}
}

func TestChunkTableTruncation(t *testing.T) {
	raw := chunkFormat.EncodeTable([]filefmt.Block{
		{Name: "x", Offs: []uint64{1}, Counts: []uint64{2}, FileOff: 3, StoredLen: 4, RawLen: 5},
	})
	for cut := range raw {
		if _, err := chunkFormat.DecodeTable(raw[:cut]); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
}
