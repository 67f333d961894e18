package core

// The commit engine owns both.
func commitEngine(p pool) {
	tx := p.Begin(0)
	_ = p.Alloc(tx, 8)
	_ = p.Free(tx, 1)
	_, _ = p.Slice(0, 8)
}
