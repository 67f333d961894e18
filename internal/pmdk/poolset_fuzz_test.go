package pmdk

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"pmemcpy/internal/checksum"
)

// validDesc is member 1 of 4 of set 7, as writeSetDesc lays it out.
func validDesc() []byte {
	d := make([]byte, setDescSize)
	copy(d[descMagic:], setDescMagic)
	binary.LittleEndian.PutUint64(d[descSetID:], 7)
	binary.LittleEndian.PutUint32(d[descIndex:], 1)
	binary.LittleEndian.PutUint32(d[descCount:], 4)
	binary.LittleEndian.PutUint64(d[descCksum:], uint64(checksum.Sum(d[:descCksum])))
	return d
}

// FuzzReadSetDesc pins ReadSetDesc's contract on a damaged member pool: it
// runs before recovery, on whatever a crash or a bad device left in the
// mapping, so arbitrary header and slot bytes must never panic, and the slot
// reads exactly three ways — all-zero is "never published" (or ErrBadPool
// behind a valid header of another version) and nothing else is; a descriptor
// decodes only past its magic and checksum; everything else is ErrCorrupt.
//
// The input patches the pool header (fixHdr recomputes its checksum) and
// plants slot in the descriptor slot (fixDesc recomputes the descriptor
// checksum), so the mutator reaches past both gates instead of dying at them.
func FuzzReadSetDesc(f *testing.F) {
	bitOff := validDesc()
	bitOff[descIndex] ^= 1
	oldFormat := func(v uint32) []byte {
		h := make([]byte, hdrVersion+4)
		copy(h, poolMagic)
		binary.LittleEndian.PutUint32(h[hdrVersion:], v)
		return h
	}
	v3, v4 := oldFormat(3), oldFormat(4)
	f.Add([]byte{}, make([]byte, setDescSize), false, false) // all-zero: never published
	f.Add([]byte{}, validDesc(), false, false)               // valid
	f.Add([]byte{}, bitOff, false, false)                    // one bit off: corrupt
	f.Add([]byte{}, bitOff, false, true)                     // ...re-summed: member 0 of 4
	f.Add([]byte("NOTAPOOL"), make([]byte, setDescSize), false, false)
	f.Add(v3, make([]byte, setDescSize), true, false) // empty slot behind a format-3 header
	f.Add(v3, validDesc(), true, false)
	f.Add(v4, make([]byte, setDescSize), true, false) // ...and a format-4 one: ErrBadPool, not "create"
	f.Add(v4, validDesc(), true, false)               // a published format-4 member: the slot decodes, Open refuses
	f.Fuzz(func(t *testing.T, hdrPatch, slot []byte, fixHdr, fixDesc bool) {
		_, m, clk := newTestPool(t, 1<<20)
		hdr, err := m.Slice(0, headerSize)
		if err != nil {
			t.Fatal(err)
		}
		copy(hdr[:hdrSetDesc], hdrPatch)
		if fixHdr {
			binary.LittleEndian.PutUint64(hdr[hdrChecksum:], headerChecksum(hdr))
		}
		raw := hdr[hdrSetDesc : hdrSetDesc+setDescSize]
		copy(raw, slot)
		if fixDesc {
			binary.LittleEndian.PutUint64(raw[descCksum:], uint64(checksum.Sum(raw[:descCksum])))
		}
		empty := bytes.Equal(raw, make([]byte, setDescSize))

		d, err := ReadSetDesc(clk, m)
		switch {
		case err == nil:
			if empty || d.Index < 0 || d.Count < 0 {
				t.Fatalf("ReadSetDesc decoded %+v from slot % x", d, raw)
			}
		case errors.Is(err, ErrSetUnpublished), errors.Is(err, ErrBadPool):
			if !empty {
				t.Fatalf("ReadSetDesc = %v on the non-zero slot % x", err, raw)
			}
		case errors.Is(err, ErrCorrupt):
			if empty {
				t.Fatalf("ReadSetDesc = %v on an all-zero slot", err)
			}
		default:
			t.Fatalf("ReadSetDesc = %v: not one of the three readings", err)
		}
	})
}
