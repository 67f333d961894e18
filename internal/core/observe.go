package core

// StoreStats is a snapshot of the store's contents. Every counter of the
// store — allocator, transactions, block index, engines — is a Metrics()
// series instead.
type StoreStats struct {
	// Keys is the number of metadata entries (including "#dims" companions).
	Keys int
	// HeapUsed is the number of pool heap bytes reserved off the brk
	// (hashtable layout only; freed blocks are reusable but still counted).
	HeapUsed int64
}

// Stats returns a snapshot of the store's metadata and heap use.
func (p *PMEM) Stats() (StoreStats, error) {
	keys, err := p.Keys()
	if err != nil {
		return StoreStats{}, err
	}
	st := StoreStats{Keys: len(keys)}
	if !p.st.lay.pooled() {
		return st, nil
	}
	// On a sharded namespace, heap use sums over every member pool.
	for _, pool := range p.st.pools {
		used, err := pool.HeapUsed(p.comm.Clock())
		if err != nil {
			return StoreStats{}, err
		}
		st.HeapUsed += used
	}
	return st, nil
}
