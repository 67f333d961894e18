package serial

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
)

// bp4Codec is the default, self-describing format modelled on the ADIOS BP4
// format the paper uses: a compact header, per-block min/max characteristics
// ("lightweight data characterization"), and the payload stored exactly as
// produced by the process.
//
// Layout (little-endian):
//
//	magic   [4]byte  "BP4\x01"
//	type    uint8
//	ndims   uint8
//	flags   uint16   bit 0: characteristics present
//	dims    [ndims]uint64
//	paylen  uint64
//	min,max float64  (present iff flags bit 0)
//	payload [paylen]byte
type bp4Codec struct{}

var bp4Magic = [4]byte{'B', 'P', '4', 1}

const bp4FlagStats = 1 << 0

func init() { Register(bp4Codec{}) }

func (bp4Codec) Name() string                    { return "bp4" }
func (bp4Codec) SelfDescribing() bool            { return true }
func (bp4Codec) CostProfile() (float64, float64) { return 1.30, 1.0 }
func (bp4Codec) headerSize(ndims int, stats bool) int {
	n := 4 + 1 + 1 + 2 + 8*ndims + 8
	if stats {
		n += 16
	}
	return n
}

func (c bp4Codec) EncodedSize(d *Datum) int {
	return c.headerSize(len(d.Dims), d.Type.Fixed()) + len(d.Payload)
}

func (c bp4Codec) EncodeTo(dst []byte, d *Datum) (int, error) {
	return dropSum(encode(c, dst, d, 0, false))
}

func (c bp4Codec) EncodeSum(dst []byte, d *Datum, crc uint32) (int, uint32, error) {
	return encode(c, dst, d, crc, true)
}

// header leaves the characteristics slot of a fixed-type datum to the sweep.
func (bp4Codec) header(dst []byte, d *Datum) (int, []byte) {
	off := copy(dst, bp4Magic[:])
	dst[off] = byte(d.Type)
	dst[off+1] = byte(len(d.Dims))
	var flags uint16
	if d.Type.Fixed() {
		flags |= bp4FlagStats
	}
	binary.LittleEndian.PutUint16(dst[off+2:], flags)
	off += 4
	for _, v := range d.Dims {
		binary.LittleEndian.PutUint64(dst[off:], v)
		off += 8
	}
	binary.LittleEndian.PutUint64(dst[off:], uint64(len(d.Payload)))
	off += 8
	if !d.Type.Fixed() {
		return off, nil
	}
	return off + 16, dst[off : off+16]
}

func (c bp4Codec) Decode(src []byte, hint *Datum) (*Datum, error) { return decodeNew(c, src, hint) }

func (c bp4Codec) DecodeTo(src []byte, d *Datum) error {
	if len(src) < 16 {
		return ErrTruncated
	}
	if !bytes.Equal(src[:4], bp4Magic[:]) {
		return fmt.Errorf("%w: %x", ErrBadMagic, src[:4])
	}
	ndims := int(src[5])
	flags := binary.LittleEndian.Uint16(src[6:8])
	if ndims > MaxDims {
		return fmt.Errorf("%w: rank %d", ErrBadDatum, ndims)
	}
	hdr := c.headerSize(ndims, flags&bp4FlagStats != 0)
	if len(src) < hdr {
		return ErrTruncated
	}
	d.Type = DType(src[4])
	d.resizeDims(ndims)
	off := 8
	for i := range d.Dims {
		d.Dims[i] = binary.LittleEndian.Uint64(src[off:])
		off += 8
	}
	paylen := binary.LittleEndian.Uint64(src[off:])
	off += 8
	if flags&bp4FlagStats != 0 {
		off += 16
	}
	return d.setPayload(src, off, paylen)
}

// Stats decodes only the min/max characteristics of a BP4 block, or ok=false
// if the block carries none.
func (bp4Codec) Stats(src []byte) (mn, mx float64, ok bool, err error) {
	if len(src) < 8 {
		return 0, 0, false, ErrTruncated
	}
	if !bytes.Equal(src[:4], bp4Magic[:]) {
		return 0, 0, false, fmt.Errorf("%w: %x", ErrBadMagic, src[:4])
	}
	ndims := int(src[5])
	flags := binary.LittleEndian.Uint16(src[6:8])
	if flags&bp4FlagStats == 0 {
		return 0, 0, false, nil
	}
	off := 8 + 8*ndims + 8
	if len(src) < off+16 {
		return 0, 0, false, ErrTruncated
	}
	mn = math.Float64frombits(binary.LittleEndian.Uint64(src[off:]))
	mx = math.Float64frombits(binary.LittleEndian.Uint64(src[off+8:]))
	return mn, mx, true, nil
}
