// Package filefmt holds the two file layouts the comparison baselines store
// their data in, each implemented once:
//
//   - the region file (region.go): every variable is one contiguous global
//     linearization at a fixed offset behind a header area, written and read
//     through two-phase collective I/O. NetCDF (contiguous) and pNetCDF are
//     this layout.
//   - the block log (blocklog.go): every written block is appended where its
//     rank's data lands, and a global index plus footer written at close says
//     where. ADIOS and NetCDF-chunked are this layout.
//
// A library is a descriptor value (magic, field widths, which fields exist)
// plus the policy it adds on top — fill mode, the iput queue, the DRAM staging
// buffer, a codec or filter transform. What the paper's figures attribute to a
// layout is charged here; what they attribute to a library is charged there.
package filefmt

import (
	"fmt"

	"pmemcpy/internal/nd"
	"pmemcpy/internal/pio"
	"pmemcpy/internal/serial"
)

// Var is one defined variable. Off is the file offset of its region (region
// files only).
type Var struct {
	pio.Var
	Off int64
}

// vars is the variable table of a session: filled by DefineVar on the write
// side, decoded from the header or index on the read side. lib prefixes its
// errors.
type vars struct {
	lib    string
	byName map[string]*Var
	order  []*Var
}

// define validates v and appends it to the table.
func (t *vars) define(v pio.Var, off int64) error {
	if err := v.Validate(); err != nil {
		return err
	}
	if _, dup := t.byName[v.Name]; dup {
		return fmt.Errorf("%s: variable %q already defined", t.lib, v.Name)
	}
	if t.byName == nil {
		t.byName = make(map[string]*Var)
	}
	vi := &Var{Var: v, Off: off}
	t.byName[v.Name] = vi
	t.order = append(t.order, vi)
	return nil
}

// Dims implements pio.Reader.
func (t *vars) Dims(name string) ([]uint64, error) {
	v, ok := t.byName[name]
	if !ok {
		return nil, fmt.Errorf("%s: unknown variable %q", t.lib, name)
	}
	return append([]uint64(nil), v.GlobalDims...), nil
}

// block is the prologue of every Write and Read: it resolves the variable,
// bounds-checks the block against its global dims, and cuts buf to exactly
// the block's bytes — a longer buffer is accepted, a shorter one is not.
func (t *vars) block(name string, offs, counts []uint64, buf []byte) (*Var, []byte, error) {
	v, ok := t.byName[name]
	if !ok {
		return nil, nil, fmt.Errorf("%s: unknown variable %q", t.lib, name)
	}
	if err := nd.CheckBlock(v.GlobalDims, offs, counts); err != nil {
		return nil, nil, err
	}
	need := nd.Size(counts) * uint64(v.ElemSize())
	if uint64(len(buf)) < need {
		return nil, nil, fmt.Errorf("%s: buffer of %d bytes, block needs %d", t.lib, len(buf), need)
	}
	return v, buf[:need], nil
}

// appendUint appends the low width bytes of v, little-endian.
func appendUint(buf []byte, v uint64, width int) []byte {
	for i := 0; i < width; i++ {
		buf = append(buf, byte(v>>(8*i)))
	}
	return buf
}

// appendVar appends a variable's description — name (behind a length field
// nameLen bytes wide), element type, rank, global dims — the record both
// layouts open a variable's metadata with.
func appendVar(buf []byte, lib string, v pio.Var, nameLen int) ([]byte, error) {
	if uint64(len(v.Name)) >= 1<<(8*nameLen) {
		return nil, fmt.Errorf("%s: variable name of %d bytes too long", lib, len(v.Name))
	}
	buf = appendUint(buf, uint64(len(v.Name)), nameLen)
	buf = append(buf, v.Name...)
	buf = append(buf, byte(v.Type), byte(len(v.GlobalDims)))
	for _, d := range v.GlobalDims {
		buf = appendUint(buf, d, 8)
	}
	return buf, nil
}

// cursor decodes fields from the front of raw. Reading past the end sets bad
// and yields zeros from then on, so a decoder checks bad once per record
// instead of before every field.
type cursor struct {
	raw []byte
	bad bool
}

func (c *cursor) take(n uint64) []byte {
	if n > uint64(len(c.raw)) {
		c.bad, c.raw = true, nil
		return nil
	}
	b := c.raw[:n]
	c.raw = c.raw[n:]
	return b
}

// uint reads a little-endian integer width bytes wide.
func (c *cursor) uint(width int) uint64 {
	var v uint64
	for i, b := range c.take(uint64(width)) {
		v |= uint64(b) << (8 * i)
	}
	return v
}

// dims reads n 8-byte extents.
func (c *cursor) dims(n int) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		out[i] = c.uint(8)
	}
	return out
}

// variable reads one appendVar record.
func (c *cursor) variable(nameLen int) pio.Var {
	name := string(c.take(c.uint(nameLen)))
	v := pio.Var{Name: name, Type: serial.DType(c.uint(1))}
	v.GlobalDims = c.dims(int(c.uint(1)))
	return v
}
