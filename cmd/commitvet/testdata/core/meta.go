package core

import "encoding/binary"

// The metadata module declares the layouts, compares them, and owns the
// record bytes.
type Layout int

const (
	LayoutHashtable Layout = iota
	LayoutHierarchy
)

const inlineTag = 0xA8

func newLayout(l Layout, raw []byte) uint32 {
	if l == LayoutHierarchy || raw[0] == inlineTag {
		return 0
	}
	return binary.LittleEndian.Uint32(raw)
}
