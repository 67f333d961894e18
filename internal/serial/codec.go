package serial

import (
	"fmt"
	"sort"
	"sync"
)

// Codec serializes data into caller-provided buffers and back. All formats
// are little-endian.
type Codec interface {
	// Name is the codec's registry key ("bp4", "flat", "cbin", "raw").
	Name() string

	// SelfDescribing reports whether Decode can recover type and dims from
	// the encoded bytes alone. Non-self-describing codecs (raw) need the
	// hint argument of Decode filled in by out-of-band metadata.
	SelfDescribing() bool

	// EncodedSize returns the exact number of bytes EncodeTo will produce
	// for d. It is used to size allocations in storage before encoding.
	EncodedSize(d *Datum) int

	// EncodeTo serializes d into dst, which must be at least EncodedSize(d)
	// bytes, and returns the number of bytes written. dst may be mapped
	// device memory: the payload moves into it in one sweep (sweep.go),
	// front to back, and every byte is written exactly once — bp4 alone goes
	// back, to fill the 16-byte characteristics slot of its header once the
	// sweep over a payload larger than one tile has folded them.
	EncodeTo(dst []byte, d *Datum) (int, error)

	// EncodeSum is EncodeTo with the block checksum taken in the same sweep:
	// crc is the running CRC32C of whatever precedes the encoding in its
	// block (0 at the block's start), and the CRC returned has advanced over
	// the bytes written, so a tag byte, an encoding and the fragments of a
	// coalesced block keep one running sum.
	EncodeSum(dst []byte, d *Datum, crc uint32) (n int, sum uint32, err error)

	// Decode parses an encoded datum from src. Self-describing codecs
	// ignore hint; raw requires hint.Type (and hint.Dims for arrays). The
	// returned datum's payload aliases src whenever the format permits, so
	// decoding from mapped PMEM performs no copy.
	Decode(src []byte, hint *Datum) (*Datum, error)

	// DecodeTo is Decode into a caller-owned datum: d carries the hint on
	// entry and the decoded datum on return. Its Dims reuse d.Dims' array when
	// the capacity suffices (MaxDims always does) and are nil for a scalar, so
	// a decode into a datum the caller keeps allocates nothing. The payload
	// aliases src as Decode's does. On error d's contents are unspecified.
	DecodeTo(src []byte, d *Datum) error

	// CostProfile returns the number of passes over the payload that
	// encoding and decoding perform, used by the virtual-time model: a
	// characterizing format like BP4 reads the data an extra time to
	// compute min/max statistics.
	CostProfile() (encodePasses, decodePasses float64)
}

// IdentityEncoder is implemented by codecs whose EncodeTo is a plain byte
// copy of the payload with no header (raw). Callers may then copy disjoint
// sub-ranges of one encode concurrently — the property the parallel store
// engine needs to chunk a single destination block across workers.
type IdentityEncoder interface {
	IdentityEncode() bool
}

var (
	registryMu sync.RWMutex
	registry   = make(map[string]Codec)
)

// Register adds a codec to the registry. Registering two codecs with the
// same name is a programming error and panics.
func Register(c Codec) {
	registryMu.Lock()
	defer registryMu.Unlock()
	if _, dup := registry[c.Name()]; dup {
		panic(fmt.Sprintf("serial: duplicate codec %q", c.Name()))
	}
	registry[c.Name()] = c
}

// Get returns the codec registered under name.
func Get(name string) (Codec, error) {
	registryMu.RLock()
	defer registryMu.RUnlock()
	c, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("serial: unknown codec %q", name)
	}
	return c, nil
}

// Names returns the sorted names of all registered codecs.
func Names() []string {
	registryMu.RLock()
	defer registryMu.RUnlock()
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Default returns the default codec, BP4, matching the paper ("By default,
// the BP4 serialization (same as ADIOS) is used").
func Default() Codec {
	c, err := Get("bp4")
	if err != nil {
		panic(err)
	}
	return c
}
