package pmdk

import (
	"encoding/binary"
	"testing"

	"pmemcpy/internal/checksum"
)

// FuzzReadSetDesc pins ReadSetDesc's contract on a damaged member pool: it
// runs before recovery, on whatever a crash or a bad device left in the
// mapping, so arbitrary header and descriptor bytes must never panic or slice
// outside the mapping — they decode, report "no descriptor", or error.
//
// The input patches the pool header, then (fix bit 0) plants the fuzzed root
// extent behind a recomputed header checksum and (fix bit 1) a fuzzed
// descriptor behind a recomputed descriptor checksum, so the mutator reaches
// past both gates instead of dying at them.
func FuzzReadSetDesc(f *testing.F) {
	f.Add([]byte{}, uint64(0), uint64(0), []byte{}, uint8(0))           // the pristine member
	f.Add([]byte("NOTAPOOL"), uint64(0), uint64(0), []byte{}, uint8(0)) // bad magic
	f.Add([]byte{}, uint64(1<<63), uint64(4096), []byte{}, uint8(1))    // root far outside the mapping
	f.Add([]byte{}, uint64(256), ^uint64(0), []byte{}, uint8(1))        // negative root size
	f.Add([]byte{}, uint64(256), uint64(47), []byte{}, uint8(1))        // root too small for a descriptor
	f.Add([]byte{}, uint64(4096), uint64(4096), []byte("PMSETDSC\x07\x00\x00\x00\x00\x00\x00\x00\x02\x00\x00\x00\x04\x00\x00\x00\x01"), uint8(3))
	f.Fuzz(func(t *testing.T, hdrPatch []byte, rootOff, rootSize uint64, desc []byte, fix uint8) {
		p, m, clk := newTestPool(t, 1<<20)
		if err := p.writeSetDesc(clk, 7, 1, 4, 0, ptSetMember); err != nil {
			t.Fatal(err)
		}
		hdr, err := m.Slice(0, headerSize)
		if err != nil {
			t.Fatal(err)
		}
		copy(hdr, hdrPatch)
		if fix&1 != 0 {
			binary.LittleEndian.PutUint64(hdr[hdrRootOff:], rootOff)
			binary.LittleEndian.PutUint64(hdr[hdrRootSize:], rootSize)
			binary.LittleEndian.PutUint64(hdr[hdrChecksum:], headerChecksum(hdr))
		}
		if off := int64(rootOff + rootSize - setDescSize); fix&2 != 0 && off >= headerSize && off+setDescSize <= m.Len() {
			slot, _ := m.Slice(off, setDescSize)
			copy(slot, desc)
			binary.LittleEndian.PutUint64(slot[descCksum:], uint64(checksum.Sum(slot[:descCksum])))
		}

		d, ok, err := ReadSetDesc(clk, m)
		if ok && err != nil {
			t.Fatalf("ReadSetDesc = (%+v, ok, %v): a decoded descriptor with an error", d, err)
		}
		if ok && (d.Index < 0 || d.Count < 0) {
			t.Fatalf("ReadSetDesc decoded a negative member index or count: %+v", d)
		}
	})
}
