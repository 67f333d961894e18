package core

// Test files may touch the pool directly, start goroutines and skew a clock,
// but a leaked lease is a leak in a test too.
func testOnly(p pool) {
	clock{}.Advance(1)
	_ = p.Begin(0)
	_, _ = p.Slice(0, 8)
	go testOnly(p)
	p.LoadView("x") // want lease
}
