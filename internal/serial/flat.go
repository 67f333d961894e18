package serial

import (
	"encoding/binary"
	"fmt"
)

// flatCodec is a Cap'n-Proto-style format: every field lives in an
// 8-byte-aligned word and the payload is stored verbatim at an 8-byte-aligned
// offset, so decoding is a pure pointer fix-up — the returned payload always
// aliases the source buffer with correct alignment for any element type.
//
// Layout (little-endian, all offsets multiples of 8):
//
//	word 0: magic uint32 "FLT1" | type uint8 | ndims uint8 | pad uint16
//	word 1: paylen uint64
//	words : dims, one word each
//	payload, padded to the next word boundary
type flatCodec struct{}

const flatMagic = uint32(0x31544C46) // "FLT1" little-endian

func init() { Register(flatCodec{}) }

func (flatCodec) Name() string                    { return "flat" }
func (flatCodec) SelfDescribing() bool            { return true }
func (flatCodec) CostProfile() (float64, float64) { return 1.0, 1.0 }

func flatHeaderSize(ndims int) int { return 16 + 8*ndims }

func pad8(n int) int { return (n + 7) &^ 7 }

func (flatCodec) EncodedSize(d *Datum) int {
	return flatHeaderSize(len(d.Dims)) + pad8(len(d.Payload))
}

func (c flatCodec) EncodeTo(dst []byte, d *Datum) (int, error) {
	return dropSum(encode(c, dst, d, 0, false))
}

func (c flatCodec) EncodeSum(dst []byte, d *Datum, crc uint32) (int, uint32, error) {
	return encode(c, dst, d, crc, true)
}

func (flatCodec) header(dst []byte, d *Datum) (int, []byte) {
	binary.LittleEndian.PutUint32(dst[0:], flatMagic)
	dst[4] = byte(d.Type)
	dst[5] = byte(len(d.Dims))
	dst[6], dst[7] = 0, 0
	binary.LittleEndian.PutUint64(dst[8:], uint64(len(d.Payload)))
	off := 16
	for _, v := range d.Dims {
		binary.LittleEndian.PutUint64(dst[off:], v)
		off += 8
	}
	return off, nil
}

func (c flatCodec) Decode(src []byte, hint *Datum) (*Datum, error) { return decodeNew(c, src, hint) }

func (flatCodec) DecodeTo(src []byte, d *Datum) error {
	if len(src) < 16 {
		return ErrTruncated
	}
	if binary.LittleEndian.Uint32(src[0:]) != flatMagic {
		return fmt.Errorf("%w: %x", ErrBadMagic, src[:4])
	}
	ndims := int(src[5])
	if ndims > MaxDims {
		return fmt.Errorf("%w: rank %d", ErrBadDatum, ndims)
	}
	paylen := binary.LittleEndian.Uint64(src[8:])
	hdr := flatHeaderSize(ndims)
	if len(src) < hdr {
		return ErrTruncated
	}
	d.Type = DType(src[4])
	d.resizeDims(ndims)
	for i := range d.Dims {
		d.Dims[i] = binary.LittleEndian.Uint64(src[16+8*i:])
	}
	return d.setPayload(src, hdr, paylen)
}
