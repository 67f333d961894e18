package core

import "encoding/binary"

// The metadata module declares the layouts, compares them, and owns the
// record bytes.
type Layout int

const (
	LayoutHashtable Layout = iota
	LayoutHierarchy
)

func newLayout(l Layout, raw []byte) uint32 {
	if l == LayoutHierarchy {
		return 0
	}
	return binary.LittleEndian.Uint32(raw)
}
