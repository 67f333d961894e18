package serial

import (
	"encoding/binary"
	"fmt"
)

// cbinCodec is a cereal-style compact binary format: a two-byte magic, a type
// byte, then varint-encoded rank, dims and payload length, followed by the
// verbatim payload. It trades the alignment guarantees of flat for the
// smallest possible header.
type cbinCodec struct{}

const (
	cbinMagic0 = 0xCB
	cbinMagic1 = 0x01
)

func init() { Register(cbinCodec{}) }

func (cbinCodec) Name() string                    { return "cbin" }
func (cbinCodec) SelfDescribing() bool            { return true }
func (cbinCodec) CostProfile() (float64, float64) { return 1.10, 1.05 }

func (cbinCodec) EncodedSize(d *Datum) int {
	n := 3 + varintLen(uint64(len(d.Dims)))
	for _, v := range d.Dims {
		n += varintLen(v)
	}
	n += varintLen(uint64(len(d.Payload)))
	return n + len(d.Payload)
}

func varintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

func (c cbinCodec) EncodeTo(dst []byte, d *Datum) (int, error) {
	return dropSum(encode(c, dst, d, 0, false))
}

func (c cbinCodec) EncodeSum(dst []byte, d *Datum, crc uint32) (int, uint32, error) {
	return encode(c, dst, d, crc, true)
}

func (cbinCodec) header(dst []byte, d *Datum) (int, []byte) {
	dst[0], dst[1], dst[2] = cbinMagic0, cbinMagic1, byte(d.Type)
	off := 3
	off += binary.PutUvarint(dst[off:], uint64(len(d.Dims)))
	for _, v := range d.Dims {
		off += binary.PutUvarint(dst[off:], v)
	}
	off += binary.PutUvarint(dst[off:], uint64(len(d.Payload)))
	return off, nil
}

func (c cbinCodec) Decode(src []byte, hint *Datum) (*Datum, error) { return decodeNew(c, src, hint) }

func (cbinCodec) DecodeTo(src []byte, d *Datum) error {
	if len(src) < 3 {
		return ErrTruncated
	}
	if src[0] != cbinMagic0 || src[1] != cbinMagic1 {
		return fmt.Errorf("%w: %x", ErrBadMagic, src[:2])
	}
	off := 3
	rank, n := binary.Uvarint(src[off:])
	if n <= 0 {
		return ErrTruncated
	}
	off += n
	if rank > MaxDims {
		return fmt.Errorf("%w: rank %d", ErrBadDatum, rank)
	}
	d.Type = DType(src[2])
	d.resizeDims(int(rank))
	for i := range d.Dims {
		v, n := binary.Uvarint(src[off:])
		if n <= 0 {
			return ErrTruncated
		}
		d.Dims[i] = v
		off += n
	}
	paylen, n := binary.Uvarint(src[off:])
	if n <= 0 {
		return ErrTruncated
	}
	off += n
	return d.setPayload(src, off, paylen)
}
