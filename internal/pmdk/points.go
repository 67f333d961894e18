package pmdk

import "pmemcpy/internal/pmem"

// Named persist points of the pmdk layer. Every flush and atomic
// publish below carries one of these IDs, so the fault-injection engine can
// report coverage by protocol step rather than by raw byte offset. The names
// are the stable contract: the explorer's golden file and the coverage maps
// key on them.
var (
	// Pool lifecycle.
	ptPoolHeader = pmem.RegisterPoint("pmdk.pool.header")
	ptPoolFormat = pmem.RegisterPoint("pmdk.pool.format")

	// Allocator: an extent formatted as one free block, then the un-logged
	// brk advance that grants it; a reservation's split, the tail's free
	// header and then the head's; a given-back block's merge with the free
	// block after it.
	ptAllocExtentFormat = pmem.RegisterPoint("pmdk.alloc.extent.format")
	ptAllocBrk          = pmem.RegisterPoint("pmdk.alloc.brk")
	ptAllocSplit        = pmem.RegisterPoint("pmdk.alloc.split")
	ptAllocMerge        = pmem.RegisterPoint("pmdk.alloc.merge")

	// Undo-log transaction protocol (see the lane layout comment in tx.go):
	// the entry, the mutated ranges at commit, the generation bump.
	ptTxLogEntry   = pmem.RegisterPoint("pmdk.tx.log.entry")
	ptTxCommitData = pmem.RegisterPoint("pmdk.tx.commit.data")
	ptTxLaneClose  = pmem.RegisterPoint("pmdk.tx.lane.close")

	// Recovery / rollback: each pre-image applied, then the generation bump.
	ptRecUndo      = pmem.RegisterPoint("pmdk.rec.undo")
	ptRecLaneClear = pmem.RegisterPoint("pmdk.rec.lane.clear")

	// Hashtable formatting and object publication.
	ptHTFormat = pmem.RegisterPoint("pmdk.ht.format")
	ptHTValue  = pmem.RegisterPoint("pmdk.ht.value")
	ptHTEntry  = pmem.RegisterPoint("pmdk.ht.entry")
)
