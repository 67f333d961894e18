package core

// Test files may touch the pool directly.
func testOnly(p pool) {
	_ = p.Begin(0)
	_, _ = p.Slice(0, 8)
}
