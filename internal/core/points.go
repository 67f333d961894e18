package core

import "pmemcpy/internal/pmem"

// Named persist points of the core store's unified commit engine
// (writeplan.go). Payload flushes happen outside the pmdk transaction
// (ordered publish: persist the payload, then publish the pointer
// transactionally), so they carry their own points distinct from the pmdk
// protocol steps.
var (
	// The serial whole-value fill (StoreDatum through fillSerial).
	ptDatumPayload = pmem.RegisterPoint("core.commit.datum")
	// The parallel chunked-copy whole-value fill (fillChunked).
	ptDatumChunk = pmem.RegisterPoint("core.commit.chunk")
	// The serial block fill (StoreBlock through fillSerial).
	ptBlockPayload = pmem.RegisterPoint("core.commit.block")
	// The sharded parallel per-shard fill (fillSharded).
	ptBlockShard = pmem.RegisterPoint("core.commit.shard")
	// The async group commit's per-unit fill: one point for
	// single-submission units, one for units that coalesced several adjacent
	// sub-stores into one block.
	ptAsyncPayload = pmem.RegisterPoint("core.commit.batch")
	ptAsyncMerge   = pmem.RegisterPoint("core.commit.merge")
)
