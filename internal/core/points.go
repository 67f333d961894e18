package core

import "pmemcpy/internal/pmem"

// Named persist points of the core store's unified commit engine
// (writeplan.go). Payload flushes happen outside the pmdk transaction
// (ordered publish: persist the payload, then publish the pointer
// transactionally), so they carry their own points distinct from the pmdk
// protocol steps.
var (
	// A whole value filled by one job (StoreDatum).
	ptDatumPayload = pmem.RegisterPoint("core.commit.datum")
	// A whole value filled by concurrent byte-range jobs (chunkFrags).
	ptDatumChunk = pmem.RegisterPoint("core.commit.chunk")
	// A block filled by one job (StoreBlock).
	ptBlockPayload = pmem.RegisterPoint("core.commit.block")
	// One shard of a block store filled as a concurrent wave (shardUnits).
	ptBlockShard = pmem.RegisterPoint("core.commit.shard")
	// The async group commit's per-unit fill: one point for
	// single-submission units, one for units that coalesced several adjacent
	// sub-stores into one block.
	ptAsyncPayload = pmem.RegisterPoint("core.commit.batch")
	ptAsyncMerge   = pmem.RegisterPoint("core.commit.merge")
)
