// Package checksum implements the CRC32C (Castagnoli) checksum used by the
// integrity layer: every stored block carries a CRC computed while the block
// is serialized into PMEM, verified reads and the scrubber recompute it, and
// pmemfsck -deep sweeps every published block.
//
// Sum and Update delegate to the standard library's Castagnoli table, which
// dispatches to hardware CRC32 instructions where the host has them (SSE4.2,
// ARMv8 CRC) — this is what keeps full verified reads inside their wall-clock
// budget (E15). The portable slice-by-8 table walk is kept as sumGeneric, the
// host-independent reference the tests pin the hardware path against; both
// produce bit-identical sums, so the simulator's determinism guarantees are
// untouched. CRC32C was chosen over CRC32 (IEEE) for its better Hamming
// distance at block sizes up to ~64 KiB and because it is the checksum real
// PMEM-adjacent storage stacks standardize on (iSCSI, ext4 metadata, Btrfs),
// which keeps the modelled cost story honest.
//
// Update is how a block gets its CRC: whoever writes bytes front to back
// carries one running sum across them, however many fragments they came in.
// Combine exists for the one case a running sum cannot cover — several workers
// writing disjoint ranges of one block concurrently: each sums the range it
// copied, and the coordinator joins the partial CRCs into the block's CRC
// without a second pass over the data. It costs a GF(2) matrix exponentiation
// per call, so it joins only what ran concurrently, never what one goroutine
// wrote in sequence.
package checksum

import "hash/crc32"

// castagnoli selects the stdlib's (possibly hardware-backed) CRC32C kernel.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Poly is the Castagnoli polynomial in reversed (LSB-first) bit order, the
// form the table-driven implementation consumes.
const Poly = 0x82f63b78

// tables holds the 8 slicing tables: tables[0] is the classic byte-at-a-time
// table, tables[k][b] is the CRC of byte b followed by k zero bytes.
var tables [8][256]uint32

func init() {
	for i := 0; i < 256; i++ {
		crc := uint32(i)
		for j := 0; j < 8; j++ {
			if crc&1 == 1 {
				crc = (crc >> 1) ^ Poly
			} else {
				crc >>= 1
			}
		}
		tables[0][i] = crc
	}
	for i := 0; i < 256; i++ {
		crc := tables[0][i]
		for k := 1; k < 8; k++ {
			crc = tables[0][crc&0xff] ^ (crc >> 8)
			tables[k][i] = crc
		}
	}
}

// Sum returns the CRC32C of p.
func Sum(p []byte) uint32 { return crc32.Checksum(p, castagnoli) }

// Update returns the CRC32C of the bytes already summarized by crc followed
// by p, so Update(Update(0, a), b) == Sum(append(a, b...)).
func Update(crc uint32, p []byte) uint32 { return crc32.Update(crc, castagnoli, p) }

// sumGeneric is the portable slice-by-8 reference implementation: one 64-bit
// load folded through eight tables per step. The tests pin Sum/Update against
// it so a hardware kernel can never drift from the specified polynomial.
func sumGeneric(crc uint32, p []byte) uint32 {
	crc = ^crc
	// Slice-by-8 main loop: fold one 64-bit load per step through the eight
	// tables instead of eight dependent byte lookups.
	for len(p) >= 8 {
		crc ^= uint32(p[0]) | uint32(p[1])<<8 | uint32(p[2])<<16 | uint32(p[3])<<24
		crc = tables[7][crc&0xff] ^
			tables[6][(crc>>8)&0xff] ^
			tables[5][(crc>>16)&0xff] ^
			tables[4][crc>>24] ^
			tables[3][p[4]] ^
			tables[2][p[5]] ^
			tables[1][p[6]] ^
			tables[0][p[7]]
		p = p[8:]
	}
	for _, b := range p {
		crc = tables[0][byte(crc)^b] ^ (crc >> 8)
	}
	return ^crc
}

// Combine returns the CRC32C of the concatenation of two byte ranges given
// only their individual CRCs and the length of the second: the zlib
// crc32_combine construction, advancing crc1 through len2 zero bytes with
// GF(2) matrix exponentiation (O(log len2) 32x32 matrix products) and adding
// crc2. Combine(Sum(a), Sum(b), int64(len(b))) == Sum(append(a, b...)).
func Combine(crc1, crc2 uint32, len2 int64) uint32 {
	if len2 <= 0 {
		return crc1
	}
	var even, odd [32]uint32
	// odd is the operator for one zero bit: shift down, feeding the popped
	// bit back through the polynomial.
	odd[0] = Poly
	for i := 1; i < 32; i++ {
		odd[i] = 1 << (i - 1)
	}
	gf2Square(&even, &odd) // even = operator for 2 zero bits
	gf2Square(&odd, &even) // odd  = operator for 4 zero bits
	for {
		gf2Square(&even, &odd) // even = odd squared (zero-byte count doubles)
		if len2&1 != 0 {
			crc1 = gf2Times(&even, crc1)
		}
		len2 >>= 1
		if len2 == 0 {
			break
		}
		gf2Square(&odd, &even)
		if len2&1 != 0 {
			crc1 = gf2Times(&odd, crc1)
		}
		len2 >>= 1
		if len2 == 0 {
			break
		}
	}
	return crc1 ^ crc2
}

// gf2Times multiplies the GF(2) matrix by the vector vec.
func gf2Times(mat *[32]uint32, vec uint32) uint32 {
	var sum uint32
	for i := 0; vec != 0; i++ {
		if vec&1 != 0 {
			sum ^= mat[i]
		}
		vec >>= 1
	}
	return sum
}

// gf2Square sets dst to the square of the GF(2) matrix src.
func gf2Square(dst, src *[32]uint32) {
	for i := range dst {
		dst[i] = gf2Times(src, src[i])
	}
}
