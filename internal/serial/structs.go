package serial

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"reflect"
)

// Structured-type support. The paper criticizes HDF5's compound types for
// not supporting "the nesting of compound types or dynamically sized
// arrays"; pMEMCPY's structured values support both. A Go struct (possibly
// containing nested structs, fixed arrays, dynamically sized slices, strings
// and numeric scalars) is marshalled by encoding/gob into a self-describing
// byte payload that travels through the ordinary codec path as a Bytes
// datum, so every serializer and layout handles structured values unchanged.
//
// Like the paper's serializers, the format is an existing library's: field
// names travel with the data, so decoding tolerates field reordering, skips
// unknown fields and leaves missing ones as they were (schema evolution),
// unlike positional compound layouts. gob does not transmit a field at its
// zero value (0, "", false, an empty slice), so decoding leaves such a field
// of the destination as it was; decoding into a zero value gives back
// exactly what was stored.

// MarshalStruct encodes v (a struct or pointer to struct, with arbitrary
// nesting, slices and strings) into a self-describing byte payload.
func MarshalStruct(v any) ([]byte, error) {
	rv := reflect.ValueOf(v)
	for rv.Kind() == reflect.Pointer && !rv.IsNil() {
		rv = rv.Elem()
	}
	if rv.Kind() != reflect.Struct {
		return nil, fmt.Errorf("serial: MarshalStruct of %T, want a struct or a non-nil pointer to one", v)
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).EncodeValue(rv); err != nil {
		return nil, fmt.Errorf("serial: MarshalStruct: %w", err)
	}
	return buf.Bytes(), nil
}

// UnmarshalStruct decodes data produced by MarshalStruct into out, which
// must be a non-nil pointer to a struct. Fields are matched by name; fields
// present in the data but absent from out are skipped, and fields absent
// from the data (or stored at their zero value) keep their current values.
// Malformed data is an error, never a panic or an allocation sized by it.
func UnmarshalStruct(data []byte, out any) error {
	rv := reflect.ValueOf(out)
	if rv.Kind() != reflect.Pointer || rv.IsNil() || rv.Elem().Kind() != reflect.Struct {
		return fmt.Errorf("serial: UnmarshalStruct needs a non-nil pointer to a struct, got %T", out)
	}
	r := bytes.NewReader(data)
	if err := gob.NewDecoder(r).DecodeValue(rv); err != nil {
		return fmt.Errorf("serial: UnmarshalStruct: %w", err)
	}
	if r.Len() != 0 {
		return fmt.Errorf("serial: %d trailing bytes after struct", r.Len())
	}
	return nil
}
