package core

import (
	"fmt"

	"pmemcpy/internal/serial"
)

// Method-style equivalents of the package-level pmemcpy helpers for the value
// kinds that need no type parameter (Go methods cannot be generic, so the
// Scalar helpers stay package-level functions). They make the v2 handle read
// as one coherent API: p.StoreString next to p.Delete, p.Keys, p.Scrub.

// StoreString persists a string under id.
func (p *PMEM) StoreString(id, s string) error {
	return p.StoreDatum(id, &serial.Datum{Type: serial.String, Payload: []byte(s)})
}

// LoadString reads back a string stored with StoreString. The string is the
// one object it allocates.
func (p *PMEM) LoadString(id string) (string, error) {
	pl := readPlan{id: id, consume: consumeClone, asString: true}
	if err := p.loadWhole(&pl); err != nil {
		return "", err
	}
	if pl.dtype != serial.String {
		return "", fmt.Errorf("core: id %q holds %v, not a string: %w", id, pl.dtype, ErrTypeMismatch)
	}
	return pl.str, nil
}

// StoreStruct persists a structured value — a Go struct with arbitrary
// nesting, dynamically sized slices, fixed arrays and strings — under id.
// v may be a struct or a pointer to one; only exported fields are stored.
func (p *PMEM) StoreStruct(id string, v any) error {
	raw, err := serial.MarshalStruct(v)
	if err != nil {
		return err
	}
	return p.StoreDatum(id, &serial.Datum{Type: serial.Bytes, Payload: raw})
}

// LoadStruct reads a structured value stored with StoreStruct into out, which
// must be a non-nil pointer to a struct. Fields are matched by name: unknown
// fields in the data are skipped and missing ones keep their current values,
// so readers and writers may evolve independently.
func (p *PMEM) LoadStruct(id string, out any) error {
	d, err := p.LoadDatum(id)
	if err != nil {
		return err
	}
	if d.Type != serial.Bytes {
		return fmt.Errorf("core: id %q holds %v, not a structured value: %w", id, d.Type, ErrTypeMismatch)
	}
	return serial.UnmarshalStruct(d.Payload, out)
}
