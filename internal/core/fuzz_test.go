package core

import (
	"bytes"
	"encoding/hex"
	"errors"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"pmemcpy/internal/checksum"
	"pmemcpy/internal/mpi"
	"pmemcpy/internal/node"
	"pmemcpy/internal/serial"
	"pmemcpy/internal/sim"
)

// The metadata record codecs parse bytes read back from the pool or a
// variable's file, which a crash (or a corrupted device) can leave in any
// state. The fuzz targets pin the contract the loaders rely on: arbitrary
// input never panics and never drives an unbounded allocation — it either
// errors or decodes into records that survive a round trip.

// The record forms checkDecode drives, selected by form % nForms.
const (
	formTagged     = iota // block list | value ref | inline value | raw, through the tag dispatch
	formDims              // id+"#dims"
	formQuarantine        // the quarantine list
	formFrame             // a hierarchy block frame header
	nForms
)

// checkDecode runs one form's decoder over raw. Whatever decodes must be
// expressible: re-encoding and re-decoding yields the same record, a list's
// trailer included, bit for bit (trailing junk behind a dims record or a frame
// header is ignored; behind a list's entries only a trailer decodes).
func checkDecode(t *testing.T, form uint8, raw []byte) {
	roundTrip := func(l listForm, refs []blockRec, tr trailer) {
		back, btr, err := l.decode(l.encode(refs, tr))
		if err != nil {
			t.Fatalf("re-decode of re-encoded %s failed: %v", l.what, err)
		}
		if !reflect.DeepEqual(normalizeRecs(back), normalizeRecs(refs)) || !sameTrailer(btr, tr) {
			t.Fatalf("%s round trip mismatch:\n got %+v %+v\nwant %+v %+v", l.what, back, btr, refs, tr)
		}
	}
	switch form % nForms {
	case formTagged:
		at := poolPMID{pool: 2, id: 4096}
		blocks, kind, tr, err := decodeRecord(raw, at, nil)
		switch {
		case err != nil:
			if len(blocks) != 0 {
				t.Fatalf("undecodable %v still yields blocks %+v", kind, blocks)
			}
		case kind == recBlockList:
			roundTrip(blockList, blocks, tr)
		case kind == recValueRef && !bytes.Equal(encodeValueRef(&blocks[0]), raw):
			t.Fatalf("value ref round trip mismatch for %x", raw)
		case kind == recInline:
			// The reference points into the record itself; the CRC is carried,
			// not checked — that is the read engine's verify step.
			b := blocks[0]
			back := append([]byte(nil), raw...)
			sealInline(back, b.crc)
			if !bytes.Equal(back, raw) || b.addr() != (poolPMID{at.pool, at.id + inlinePrefix}) ||
				b.encLen != int64(len(raw)-inlinePrefix) || b.encLen > inlineMax {
				t.Fatalf("inline value %x decodes to %+v", raw, b)
			}
		}
	case formDims:
		r, err := decodeDims(raw, nil)
		if err != nil {
			return
		}
		if enc := encodeDims(r); !bytes.Equal(enc, raw[:len(enc)]) {
			t.Fatalf("dims round trip mismatch: %x from %x", enc, raw)
		}
	case formQuarantine:
		if refs, tr, err := quarList.decode(raw); err == nil {
			roundTrip(quarList, refs, tr)
		}
	case formFrame:
		b, err := decodeFrame(raw, int64(len(raw)))
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("frame error %v does not wrap ErrCorrupt", err)
			}
			return
		}
		if b.encLen < 0 || b.encLen > int64(len(raw)) || len(b.offs) > serial.MaxDims {
			t.Fatalf("frame decoder accepted %+v from %d bytes", b, len(raw))
		}
		if enc := frameFields.append(nil, &b); !bytes.Equal(enc, raw[:len(enc)]) {
			t.Fatalf("frame round trip mismatch: %x from %x", enc, raw)
		}
	}
}

// FuzzDecodeRecord drives every record form's decoder. Its seeds are the
// records TestRecordBytesPinned pins, each offered to every form.
func FuzzDecodeRecord(f *testing.F) {
	golden, err := os.ReadFile("testdata/record_bytes.golden")
	if err != nil {
		f.Fatal(err)
	}
	for _, line := range strings.Split(strings.TrimSpace(string(golden)), "\n") {
		raw, err := hex.DecodeString(line[strings.LastIndexByte(line, ' ')+1:])
		if err != nil {
			f.Fatalf("golden line %q: %v", line, err)
		}
		for form := uint8(0); form < nForms; form++ {
			f.Add(form, raw)
		}
	}
	// The inline form beyond the golden's two: a CRC its bytes do not sum to
	// (decoding carries the CRC; verifying is the read engine's), truncated
	// inside the prefix and right behind it, and one byte past inlineMax.
	whole := append(make([]byte, inlinePrefix), byte(serial.Int64), 1, 2, 3)
	sealInline(whole, checksum.Sum(whole[inlinePrefix:])^1)
	for _, raw := range [][]byte{whole, whole[:3], whole[:inlinePrefix],
		append(whole, make([]byte, inlineMax)...)[:inlinePrefix+inlineMax+1]} {
		f.Add(uint8(formTagged), raw)
	}
	f.Fuzz(checkDecode)
}

// sameTrailer compares two trailers bit for bit, so NaN equals NaN.
func sameTrailer(a, b trailer) bool {
	return a.ok == b.ok && math.Float64bits(a.min) == math.Float64bits(b.min) &&
		math.Float64bits(a.max) == math.Float64bits(b.max)
}

// trailerSeeds are a one-block list behind each kind of trailer a block list
// can carry — a range, the poisoned NaN one, an infinite one — and behind one
// or 17 bytes, which no list can.
func trailerSeeds() [][]byte {
	one := []blockRec{{dtype: serial.Float64, offs: []uint64{0}, counts: []uint64{8}, data: 4096, encLen: 64}}
	nan, inf := math.NaN(), math.Inf(1)
	var seeds [][]byte
	for _, tr := range []trailer{{-3, 7, true}, {nan, nan, true}, {-inf, inf, true}, {inf, -inf, true}} {
		seeds = append(seeds, blockList.encode(one, tr))
	}
	list := blockList.encode(one, trailer{})
	return append(seeds, append(list, make([]byte, trailerLen-1)...), append(seeds[0], 0))
}

// TestBlockListTrailer pins what may follow a block list's entries: nothing
// (the list keeps its bytes), or a 16-byte trailer, decoded bit for bit —
// NaN and the infinities included. Any other count is ErrCorrupt.
func TestBlockListTrailer(t *testing.T) {
	seeds := trailerSeeds()
	for i, raw := range seeds {
		refs, tr, err := blockList.decode(raw)
		switch {
		case i >= len(seeds)-2:
			if !errors.Is(err, ErrCorrupt) || refs != nil {
				t.Errorf("list with %d trailing bytes decoded (%v)", len(raw)-len(seeds[0])+trailerLen, err)
			}
		case err != nil || len(refs) != 1 || !tr.ok:
			t.Errorf("seed %d: %+v %+v %v", i, refs, tr, err)
		case !bytes.Equal(blockList.encode(refs, tr), raw):
			t.Errorf("seed %d re-encodes to other bytes", i)
		}
	}
	if raw := blockList.encode(nil, trailer{}); len(raw) != 5 {
		t.Errorf("a list without trailer is %d bytes, want 5", len(raw))
	}
}

func FuzzDecodeBlockList(f *testing.F) {
	for _, raw := range trailerSeeds() {
		f.Add(raw)
	}
	f.Add(blockList.encode(nil, trailer{}))
	f.Add(blockList.encode([]blockRec{{
		dtype:  serial.Float64,
		offs:   []uint64{0, 128},
		counts: []uint64{4, 32},
		data:   4096,
		encLen: 1024,
	}, {
		dtype:  serial.Int32,
		offs:   []uint64{16},
		counts: []uint64{2},
		data:   8192,
		encLen: 8,
	}}, trailer{}))
	// Pooled form: any nonzero pool index flips the encoder to the pooled
	// tag, which carries a member index per record.
	f.Add(blockList.encode([]blockRec{{
		dtype:  serial.Float64,
		offs:   []uint64{0},
		counts: []uint64{64},
		data:   4096,
		encLen: 512,
		pool:   3,
	}, {
		dtype:  serial.Float64,
		offs:   []uint64{64},
		counts: []uint64{64},
		data:   8192,
		encLen: 512,
	}}, trailer{}))
	// A count field the buffer cannot possibly hold: must error out instead
	// of sizing a four-billion-record allocation.
	f.Add([]byte{blockList.tag, 0xff, 0xff, 0xff, 0xff})
	// Impossible rank.
	f.Add([]byte{blockList.tag, 1, 0, 0, 0, byte(serial.Float64), 0xff})
	// Pooled tag with a truncated member index.
	f.Add([]byte{blockList.tag + 1, 1, 0, 0, 0})
	f.Fuzz(func(t *testing.T, raw []byte) { checkDecode(t, formTagged, raw) })
}

// normalizeRecs maps empty dim slices to nil so DeepEqual compares shape,
// not the nil-vs-empty encoding artifact of zero-rank records.
func normalizeRecs(recs []blockRec) []blockRec {
	out := make([]blockRec, len(recs))
	for i, r := range recs {
		if len(r.offs) == 0 {
			r.offs = nil
		}
		if len(r.counts) == 0 {
			r.counts = nil
		}
		out[i] = r
	}
	return out
}

func FuzzDecodeValueRef(f *testing.F) {
	f.Add(encodeValueRef(&blockRec{data: 4096, encLen: 77, crc: 0xdeadbeef}))
	f.Add(encodeValueRef(&blockRec{}))
	f.Add([]byte{valueRefTag, 1, 2})
	f.Add([]byte{blockList.tag})
	f.Fuzz(func(t *testing.T, raw []byte) { checkDecode(t, formTagged, raw) })
}

// TestReadUnitSizePinned holds the read engine's per-block working set to its
// size: every load copies its units by value across the layout interface and
// into the scatter's jobs, so a field added to readUnit or blockRec — an
// inline value needed none: its reference points into its record — is paid on
// every block of every load (ckpt-restart's load_heap_b_per_op moved 7.8 % for
// 24 bytes).
func TestReadUnitSizePinned(t *testing.T) {
	if got := unsafe.Sizeof(readUnit{}); got != 136 {
		t.Errorf("readUnit is %d bytes, pinned at 136 (blockRec %d of them)", got, unsafe.Sizeof(blockRec{}))
	}
}

// TestVerifyStoreInlineRule plants the two records store.inline exists for —
// an inline tag over more than inlineMax bytes, and one over none — and a
// well-formed one, which must pass.
func TestVerifyStoreInlineRule(t *testing.T) {
	n := node.New(sim.DefaultConfig(), 8<<20)
	n.Machine.SetConcurrency(1)
	_, err := mpi.Run(n.Machine, 1, func(c *mpi.Comm) error {
		p, err := Mmap(c, n, "/rule.pool")
		if err != nil {
			return err
		}
		good := append(make([]byte, inlinePrefix), byte(serial.Int64), 1, 2, 3, 4, 5, 6, 7, 8)
		sealInline(good, checksum.Sum(good[inlinePrefix:]))
		for id, rec := range map[string][]byte{
			"good": good, "oversize": append(good, make([]byte, inlineMax)...), "empty": good[:inlinePrefix],
		} {
			if err := p.st.lay.put(p, id, "", rec); err != nil {
				return err
			}
		}
		vs := p.VerifyStore()
		if len(vs) != 2 || !strings.HasPrefix(vs[0], `store.inline: "empty"`) || !strings.HasPrefix(vs[1], `store.inline: "oversize"`) {
			t.Errorf("VerifyStore = %q, want one store.inline violation each for empty and oversize", vs)
		}
		if _, err := p.LoadDatum("oversize"); err == nil {
			t.Error("an oversize inline record loaded")
		}
		return p.Munmap()
	})
	if err != nil {
		t.Fatal(err)
	}
}
