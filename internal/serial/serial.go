// Package serial implements the serialization layer of the pMEMCPY
// reproduction. The paper stores data via "well-known, portable serialization
// libraries, such as BP4, CapnProto, and cereal", defaults to BP4, allows
// other tools to be plugged in, and allows serialization to be disabled
// entirely. This package mirrors that design with four codecs behind one
// interface:
//
//	bp4  - self-describing, ADIOS-BP-style, with per-block min/max
//	       characteristics (the default)
//	flat - Cap'n-Proto-style zero-copy format with 8-byte-aligned words
//	cbin - cereal-style compact binary with varint headers
//	raw  - serialization disabled; payload bytes only
//
// Every codec encodes into a caller-provided destination buffer (EncodeTo),
// which is the property pMEMCPY exploits to serialize directly into mapped
// PMEM instead of staging in DRAM.
package serial

import (
	"errors"
	"fmt"
	"math/bits"
)

// DType identifies the element type of a datum.
type DType uint8

// Element types supported by the I/O libraries in this repository.
const (
	Invalid DType = iota
	Int8
	Uint8
	Int16
	Uint16
	Int32
	Uint32
	Int64
	Uint64
	Float32
	Float64
	String // variable-length UTF-8 payload; Dims must be nil
	Bytes  // variable-length opaque payload; Dims must be nil
)

var dtypeNames = [...]string{
	Invalid: "invalid",
	Int8:    "int8",
	Uint8:   "uint8",
	Int16:   "int16",
	Uint16:  "uint16",
	Int32:   "int32",
	Uint32:  "uint32",
	Int64:   "int64",
	Uint64:  "uint64",
	Float32: "float32",
	Float64: "float64",
	String:  "string",
	Bytes:   "bytes",
}

var dtypeSizes = [...]int{
	Int8: 1, Uint8: 1,
	Int16: 2, Uint16: 2,
	Int32: 4, Uint32: 4, Float32: 4,
	Int64: 8, Uint64: 8, Float64: 8,
}

// String returns the type's name.
func (t DType) String() string {
	if int(t) < len(dtypeNames) {
		return dtypeNames[t]
	}
	return fmt.Sprintf("dtype(%d)", uint8(t))
}

// Size returns the fixed element size in bytes, or 0 for variable-length
// types (String, Bytes) and Invalid.
func (t DType) Size() int {
	if int(t) < len(dtypeSizes) {
		return dtypeSizes[t]
	}
	return 0
}

// ByteSize is the byte size of an array of t with extents dims, and false
// when dims × element size wraps 64 bits. A zero extent makes it 0 whatever
// the other extents are.
func (t DType) ByteSize(dims []uint64) (uint64, bool) {
	n, hi := uint64(t.Size()), uint64(0)
	for _, v := range dims {
		if v == 0 {
			return 0, true
		}
		if hi == 0 {
			hi, n = bits.Mul64(n, v)
		}
	}
	return n, hi == 0
}

// Valid reports whether t is a known type.
func (t DType) Valid() bool {
	return t > Invalid && int(t) < len(dtypeNames)
}

// Fixed reports whether t has a fixed element size.
func (t DType) Fixed() bool { return t.Size() > 0 }

// MaxDims is the maximum array rank the formats support, matching the
// 8-dimension cap common to the PIO libraries the paper compares against.
const MaxDims = 8

// Errors shared by the codecs.
var (
	ErrTruncated   = errors.New("serial: buffer truncated")
	ErrBadMagic    = errors.New("serial: bad magic")
	ErrBadDatum    = errors.New("serial: malformed datum")
	ErrShortBuffer = errors.New("serial: destination buffer too small")
)

// Datum is the unit of serialization: a scalar, an N-dimensional array of a
// fixed-size element type, or a variable-length string/byte payload.
//
// Payload holds the raw little-endian element bytes. For arrays produced by
// the application, Payload typically aliases the application buffer
// (bytesview), and for decoded data it may alias the storage medium — both
// alias cases are deliberate: they are the zero-copy paths the paper's design
// is built around.
type Datum struct {
	Type    DType
	Dims    []uint64 // nil for scalars and variable-length types
	Payload []byte
}

// Elems returns the number of elements described by Dims (1 for scalars).
func (d *Datum) Elems() uint64 {
	n := uint64(1)
	for _, v := range d.Dims {
		n *= v
	}
	return n
}

// Validate checks internal consistency: known type, rank within MaxDims,
// payload length matching dims for fixed-size types (whose byte size must
// fit 64 bits), no dims for variable-length types.
func (d *Datum) Validate() error {
	if !d.Type.Valid() {
		return fmt.Errorf("%w: invalid type %v", ErrBadDatum, d.Type)
	}
	if len(d.Dims) > MaxDims {
		return fmt.Errorf("%w: rank %d exceeds %d", ErrBadDatum, len(d.Dims), MaxDims)
	}
	if d.Type.Fixed() {
		want, ok := d.Type.ByteSize(d.Dims)
		if !ok {
			return fmt.Errorf("%w: dims %v of %v overflow 64 bits", ErrBadDatum, d.Dims, d.Type)
		}
		if uint64(len(d.Payload)) != want {
			return fmt.Errorf("%w: payload %d bytes, dims %v of %v require %d",
				ErrBadDatum, len(d.Payload), d.Dims, d.Type, want)
		}
		return nil
	}
	if len(d.Dims) != 0 {
		return fmt.Errorf("%w: %v cannot be dimensioned", ErrBadDatum, d.Type)
	}
	return nil
}

// decodeNew is every codec's Decode: DecodeTo into a fresh datum that starts
// from a copy of the hint.
func decodeNew(c Codec, src []byte, hint *Datum) (*Datum, error) {
	d := &Datum{}
	if hint != nil {
		d.Type, d.Dims = hint.Type, append([]uint64(nil), hint.Dims...)
	}
	if err := c.DecodeTo(src, d); err != nil {
		return nil, err
	}
	return d, nil
}

// resizeDims makes d.Dims n extents long for a self-describing decoder to
// fill, reusing its array when it is large enough; a scalar's are nil.
func (d *Datum) resizeDims(n int) {
	switch {
	case n == 0:
		d.Dims = nil
	case cap(d.Dims) >= n:
		d.Dims = d.Dims[:n]
	default:
		d.Dims = make([]uint64, n)
	}
}

// setPayload finishes a self-describing decode: d's payload is the paylen
// bytes of src at off, aliased, and the datum they complete must validate.
func (d *Datum) setPayload(src []byte, off int, paylen uint64) error {
	if uint64(len(src)-off) < paylen {
		return ErrTruncated
	}
	d.Payload = src[off : off+int(paylen) : off+int(paylen)]
	return d.Validate()
}

// Clone returns a deep copy of d whose payload no longer aliases the source.
func (d *Datum) Clone() *Datum {
	c := &Datum{Type: d.Type}
	if d.Dims != nil {
		c.Dims = append([]uint64(nil), d.Dims...)
	}
	if d.Payload != nil {
		c.Payload = append([]byte(nil), d.Payload...)
	}
	return c
}

// Equal reports whether two data have the same type, dims and payload.
func (d *Datum) Equal(o *Datum) bool {
	if d.Type != o.Type || len(d.Dims) != len(o.Dims) || len(d.Payload) != len(o.Payload) {
		return false
	}
	for i := range d.Dims {
		if d.Dims[i] != o.Dims[i] {
			return false
		}
	}
	for i := range d.Payload {
		if d.Payload[i] != o.Payload[i] {
			return false
		}
	}
	return true
}
