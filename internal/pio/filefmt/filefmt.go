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
	"pmemcpy/internal/wire"
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

// appendVar appends a variable's description — name (behind a length field
// nameLen bytes wide), element type, rank, global dims — the record both
// layouts open a variable's metadata with.
func appendVar(buf []byte, lib string, v pio.Var, nameLen int) ([]byte, error) {
	if uint64(len(v.Name)) >= 1<<(8*nameLen) {
		return nil, fmt.Errorf("%s: variable name of %d bytes too long", lib, len(v.Name))
	}
	buf = wire.AppendUint(buf, uint64(len(v.Name)), nameLen)
	buf = append(buf, v.Name...)
	buf = append(buf, byte(v.Type), byte(len(v.GlobalDims)))
	for _, d := range v.GlobalDims {
		buf = wire.AppendUint(buf, d, 8)
	}
	return buf, nil
}

// readVar reads one appendVar record.
func readVar(c *wire.Cursor, nameLen int) pio.Var {
	name := string(c.Take(c.Uint(nameLen)))
	v := pio.Var{Name: name, Type: serial.DType(c.Uint(1))}
	v.GlobalDims = c.Dims(int(c.Uint(1)))
	return v
}
