package core

// The read engine may slice pool bytes but not transact.
func readEngine(p pool) {
	_, _ = p.Slice(0, 8)
	_ = p.Begin(0) // want tx
}
