// Package wire holds the little-endian field writer and reader under every
// byte format the module defines: core's persisted metadata records and the
// baselines' file layouts (internal/pio/filefmt). A format is a sequence of
// AppendUint calls on one side and Cursor reads on the other; nothing else
// in the module shifts bytes into integers.
package wire

// AppendUint appends the low width bytes of v, little-endian.
func AppendUint(buf []byte, v uint64, width int) []byte {
	for i := 0; i < width; i++ {
		buf = append(buf, byte(v>>(8*i)))
	}
	return buf
}

// Cursor decodes fields from the front of Raw. Reading past the end sets Bad
// and yields zeros from then on, so a decoder checks Bad once per record
// instead of before every field.
type Cursor struct {
	Raw []byte
	Bad bool
}

// Take returns the next n bytes.
func (c *Cursor) Take(n uint64) []byte {
	if n > uint64(len(c.Raw)) {
		c.Bad, c.Raw = true, nil
		return nil
	}
	b := c.Raw[:n]
	c.Raw = c.Raw[n:]
	return b
}

// Uint reads a little-endian integer width bytes wide.
func (c *Cursor) Uint(width int) uint64 {
	var v uint64
	for i, b := range c.Take(uint64(width)) {
		v |= uint64(b) << (8 * i)
	}
	return v
}

// Dims reads n 8-byte extents.
func (c *Cursor) Dims(n int) []uint64 { return c.AppendDims(make([]uint64, 0, n), n) }

// AppendDims reads n 8-byte extents onto dst: a decoder that carves many
// records' extents from one array pays one allocation, not one per record.
func (c *Cursor) AppendDims(dst []uint64, n int) []uint64 {
	for ; n > 0; n-- {
		dst = append(dst, c.Uint(8))
	}
	return dst
}
