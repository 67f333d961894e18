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
// without a second pass over the data. The encode sweep (internal/serial) is
// its other caller: bp4's header is complete only after its payload, so the
// header's CRC and the payload's are joined the same way. A call is a few
// 32-step GF(2) multiplications — well under a microsecond at any length.
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

// pow2[k] is x^(2^k) mod P in the CRC's own reflected bit order (bit 31 is
// x^0); pow2[j+3] advances a CRC through 2^j zero bytes. A positive int64
// length has at most 63 bits, so 66 entries cover every len2 without leaning
// on the period of x (2^31-1 for Castagnoli, not the 2^32-1 zlib's 32-entry
// wrap-around table assumes for the IEEE polynomial).
var pow2 [66]uint32

func init() {
	p := uint32(1) << 30 // x^1
	for k := range pow2 {
		pow2[k] = p
		p = mulmod(p, p)
	}
}

// mulmod returns a·b mod P over GF(2), both in reflected bit order: for each
// term of a from x^0 up, add b, then multiply b by x.
func mulmod(a, b uint32) uint32 {
	var p uint32
	for ; a != 0; a <<= 1 {
		if a&(1<<31) != 0 {
			p ^= b
		}
		b = b>>1 ^ Poly&-(b&1)
	}
	return p
}

// Combine returns the CRC32C of the concatenation of two byte ranges given
// only their individual CRCs and the length of the second: the zlib
// crc32_combine construction in its polynomial form — crc1·x^(8·len2) mod P,
// the power by square-and-multiply over pow2 (one mulmod per set bit of
// len2), plus crc2. Combine(Sum(a), Sum(b), int64(len(b))) ==
// Sum(append(a, b...)).
func Combine(crc1, crc2 uint32, len2 int64) uint32 {
	if len2 <= 0 {
		return crc1
	}
	p := uint32(1) << 31 // x^0
	for k := 3; len2 != 0; k, len2 = k+1, len2>>1 {
		if len2&1 != 0 {
			p = mulmod(pow2[k], p)
		}
	}
	return mulmod(p, crc1) ^ crc2
}
