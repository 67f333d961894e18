// Package pmdk reimplements the slice of the Persistent Memory Development
// Kit that pMEMCPY depends on: a pool with a root object, a transactional
// persistent allocator, undo-log transactions with per-lane logs, persistent
// locks, and the persistent chained hashtable the paper uses for its flat
// metadata namespace.
//
// A pool lives inside a pmem.Mapping (the analogue of a pool file mmap'ed on
// a DAX filesystem) and provides direct, zero-copy access to persistent
// memory while maintaining crash-consistency guarantees: every metadata
// mutation happens inside an undo-log transaction whose pre-images are
// persisted before the mutation, so recovery after a crash at any point
// restores a consistent state. The log is self-validating — an entry carries
// a CRC seeded with its lane's generation — so logging a range costs one
// persist barrier and a commit retires the whole log with one 8-byte store;
// tx.go has the format and the protocol. The crash tests in this package
// drive that guarantee against the device's cacheline-granular crash
// simulator.
//
// The allocator is striped into independent arenas (one lock, one bump
// extent, and one set of free lists each) so transactions on different
// goroutines allocate without contending on a single mutex; arenas grow by
// reserving extents from a shared brk, so no static heap partition limits
// block sizes. See alloc.go for the locking protocol.
package pmdk

import (
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"pmemcpy/internal/checksum"
	"pmemcpy/internal/pmem"
	"pmemcpy/internal/sim"
)

// PMID is a persistent pointer: a pool-relative byte offset. The zero PMID
// is the null pointer (offset 0 is inside the pool header, never allocated).
type PMID int64

// Null is the null persistent pointer.
const Null PMID = 0

// Errors returned by the pool layer.
var (
	ErrBadPool    = errors.New("pmdk: not a valid pool")
	ErrCorrupt    = errors.New("pmdk: pool corrupted")
	ErrBadPointer = errors.New("pmdk: invalid persistent pointer")
	ErrNoSpace    = errors.New("pmdk: out of pool space")
	ErrTxLogFull  = errors.New("pmdk: transaction log full")
)

const (
	poolMagic   = "PMDKPOOL"
	poolVersion = 5 // 5: small whole values live inline in their metadata record (core/meta.go)
	headerSize  = 256

	// Header field offsets.
	hdrMagic    = 0
	hdrVersion  = 8
	hdrFlags    = 12
	hdrPoolSize = 16
	hdrRootOff  = 24
	hdrRootSize = 32
	hdrHeapOff  = 40
	hdrHeapEnd  = 48
	hdrLanes    = 56
	hdrLaneSize = 60
	hdrLaneOff  = 64
	hdrAllocOff = 72
	hdrArenas   = 80
	hdrChecksum = 88
	hdrCksumEnd = 88 // checksum covers [0, hdrCksumEnd)
	// The header's last cacheline is the set descriptor slot (poolset.go):
	// zeroed here, written once when the namespace is created.
	hdrSetDesc = headerSize - sim.CachelineSize
)

// Options configures pool creation.
type Options struct {
	// RootSize is the size of the fixed root object, zeroed at creation.
	RootSize int64
	// Lanes is the number of independent transaction lanes (concurrent
	// transactions).
	Lanes int
	// Arenas is the number of independent allocator arenas (one lock each).
	// 0 means GOMAXPROCS; values above Lanes are clamped to Lanes, since at
	// most Lanes transactions can allocate concurrently.
	Arenas int
	// LaneLogSize is the undo-log capacity per lane.
	LaneLogSize int64
}

// DefaultOptions returns the options used when nil is passed to Create.
func DefaultOptions() Options {
	return Options{RootSize: 4096, Lanes: 16, Arenas: runtime.GOMAXPROCS(0), LaneLogSize: 16 << 10}
}

// Pool is a PMDK-style persistent object pool.
type Pool struct {
	m *pmem.Mapping

	rootOff  int64
	rootSize int64
	heapOff  int64
	heapEnd  int64
	laneOff  int64
	lanes    int
	laneSize int64
	allocOff int64

	laneFree chan int // DRAM pool of available lane indices
	// laneGen mirrors each lane's generation word, as the little-endian bytes
	// an undo entry's CRC is seeded with (see tx.go). A lane's mirror belongs
	// to the transaction holding the lane.
	laneGen [][8]byte
	// txFree holds transaction states no lane is running (tx.go): Begin takes
	// one, or makes one when none is free, so a pool holds as many as it ever
	// ran at once — one per rank, in practice — not one per lane.
	txFree chan *txn

	// arenas stripes the allocator: each arena owns a mutex, a 64-byte
	// persistent metadata block, and a contiguous slice of the heap to carve
	// from. A transaction's first Alloc/Free takes its home arena (the
	// caller's rank modulo the arena count) and holds its lock until
	// commit/abort, so allocator pre-images in different lanes never overlap
	// in time; see alloc.go for the protocol.
	arenas []arena
	// brkMu guards the shared extent brk at allocOff. It is a leaf lock:
	// taken only inside extent reservation, never while acquiring any other
	// lock, so holding an arena lock across it cannot deadlock.
	brkMu sync.Mutex
	// extent is the default extent reservation size (DRAM-only policy knob,
	// derived from the heap size; see newPoolStruct).
	extent int64

	// locks are the pool's persistent locks (Lock), in DRAM and so
	// re-initialized at open, exactly like PMDK's PMEMmutex semantics.
	locks [lockStripes]sync.RWMutex

	stats statsCounters
}

// arena is one allocator stripe. The mutex guards the persistent metadata at
// metaOff (extent bump/limit, free-list heads) and nothing else: block
// contents are protected by the owning transaction's locks. Arenas carve
// from private extents reserved off the pool's shared brk, so the heap is
// not statically partitioned and one arena can still host a block nearly as
// large as the whole heap. Free lists are not address-partitioned either:
// blocks carry self-describing headers, so an arena's list may hold blocks
// carved anywhere.
type arena struct {
	mu      sync.Mutex
	metaOff int64
	// freeHint approximates the number of blocks on this arena's free lists
	// (DRAM-only, rebuilt at Open). Allocations scan a foreign arena for
	// reusable blocks only when its hint is positive, so the fresh-write
	// path never pays cross-arena traffic.
	freeHint atomic.Int64
}

// lockStripes is the number of persistent locks a pool has.
const lockStripes = 64

// Stats reports DRAM-side counters for observability and tests.
type Stats struct {
	Allocs       int64
	Frees        int64
	Transactions int64
	Aborts       int64
	Recovered    int64 // transactions rolled back during Open
	ArenaSteals  int64 // allocations that fell back to a non-home arena
	Extents      int64 // extents reserved off the shared brk
	ExtentBytes  int64 // total bytes reserved off the brk
	AllocBytes   int64 // total block bytes handed out (headers included)
	FreeBytes    int64 // total block bytes returned via Free
	UndoEntries  int64 // undo-log entries persisted
	UndoBytes    int64 // lane bytes those entries occupy (headers and padding included)
	UndoCovered  int64 // Adds skipped: the range was already pre-imaged by its transaction
	// Hashtable updates by the form Update.Commit took (attempts: one that was
	// rolled back is also counted in Aborts).
	HTInPlace  int64 // same-length value rewritten in place under one undo entry
	HTRelinked int64 // new value block allocated, vlen|value swung, old block freed
	HTInserted int64 // new key: entry built and linked
}

// statsCounters are the live atomics behind Stats; they are DRAM-only and
// updated lock-free so concurrent transactions never contend (or race) on a
// stats mutex.
type statsCounters struct {
	allocs       atomic.Int64
	frees        atomic.Int64
	transactions atomic.Int64
	aborts       atomic.Int64
	recovered    atomic.Int64
	arenaSteals  atomic.Int64
	extents      atomic.Int64
	extentBytes  atomic.Int64
	allocBytes   atomic.Int64
	freeBytes    atomic.Int64
	undoEntries  atomic.Int64
	undoBytes    atomic.Int64
	undoCovered  atomic.Int64
	htInPlace    atomic.Int64
	htRelinked   atomic.Int64
	htInserted   atomic.Int64
}

// errVersion reports a pool of another format version: not corruption, but
// data this build neither reads nor re-formats.
func errVersion(found uint32) error {
	return fmt.Errorf("%w: format version %d, this build reads only version %d", ErrBadPool, found, poolVersion)
}

// headerChecksum guards the pool header with the same CRC32C the data path
// uses for block checksums; the 32-bit sum is stored widened in the 64-bit
// header slot so the layout is unchanged.
func headerChecksum(h []byte) uint64 {
	return uint64(checksum.Sum(h[:hdrCksumEnd]))
}

// Create formats a new pool inside mapping m and returns it ready for use.
// Any previous content of the mapping is destroyed.
func Create(clk *sim.Clock, m *pmem.Mapping, opts *Options) (*Pool, error) {
	o := DefaultOptions()
	if opts != nil {
		o = *opts
	}
	if o.Arenas <= 0 {
		o.Arenas = runtime.GOMAXPROCS(0)
	}
	if o.Lanes <= 0 || o.LaneLogSize < 4096 || o.RootSize < 0 {
		return nil, fmt.Errorf("pmdk: invalid options %+v", o)
	}
	if o.Arenas > o.Lanes {
		// At most Lanes transactions exist at once, so extra arenas could
		// never be locked concurrently; clamping keeps regions usefully big.
		o.Arenas = o.Lanes
	}
	allocOff := int64(headerSize)
	laneOff := align8(allocOff + brkMetaSize + int64(o.Arenas)*allocMetaSize)
	rootOff := align8(laneOff + int64(o.Lanes)*o.LaneLogSize)
	heapOff := alignUp(rootOff+o.RootSize, 64)
	// The heap needs room for at least one minimum block.
	if heapOff+minBlock > m.Len() {
		return nil, fmt.Errorf("%w: mapping of %d bytes too small for layout", ErrNoSpace, m.Len())
	}

	hdr, err := m.Slice(0, headerSize)
	if err != nil {
		return nil, err
	}
	if err := m.Capture(0, headerSize); err != nil {
		return nil, err
	}
	for i := range hdr {
		hdr[i] = 0
	}
	copy(hdr[hdrMagic:], poolMagic)
	binary.LittleEndian.PutUint32(hdr[hdrVersion:], poolVersion)
	binary.LittleEndian.PutUint64(hdr[hdrPoolSize:], uint64(m.Len()))
	binary.LittleEndian.PutUint64(hdr[hdrRootOff:], uint64(rootOff))
	binary.LittleEndian.PutUint64(hdr[hdrRootSize:], uint64(o.RootSize))
	binary.LittleEndian.PutUint64(hdr[hdrHeapOff:], uint64(heapOff))
	binary.LittleEndian.PutUint64(hdr[hdrHeapEnd:], uint64(m.Len()))
	binary.LittleEndian.PutUint32(hdr[hdrLanes:], uint32(o.Lanes))
	binary.LittleEndian.PutUint32(hdr[hdrLaneSize:], uint32(o.LaneLogSize))
	binary.LittleEndian.PutUint64(hdr[hdrLaneOff:], uint64(laneOff))
	binary.LittleEndian.PutUint64(hdr[hdrAllocOff:], uint64(allocOff))
	binary.LittleEndian.PutUint32(hdr[hdrArenas:], uint32(o.Arenas))
	binary.LittleEndian.PutUint64(hdr[hdrChecksum:], headerChecksum(hdr))
	m.ChargeWrite(clk, headerSize)
	if err := m.Persist(clk, 0, headerSize, ptPoolHeader); err != nil {
		return nil, err
	}

	// Zero allocator metadata, lane logs and root object.
	zeroTo := heapOff
	if err := m.Capture(allocOff, zeroTo-allocOff); err != nil {
		return nil, err
	}
	z, err := m.Slice(allocOff, zeroTo-allocOff)
	if err != nil {
		return nil, err
	}
	for i := range z {
		z[i] = 0
	}
	// Pool formatting writes fixed-size metadata (lane logs, allocator
	// state): milliseconds on real hardware regardless of pool size, so the
	// model charges only the persist fence. Charging bytes here would let
	// profile scaling inflate a constant-size cost.
	if err := m.Persist(clk, allocOff, zeroTo-allocOff, ptPoolFormat); err != nil {
		return nil, err
	}

	p := newPoolStruct(m, rootOff, o.RootSize, heapOff, m.Len(), laneOff, o.Lanes, o.LaneLogSize, allocOff, o.Arenas)
	// Seed the shared extent brk; arena extents start empty (bump = limit = 0
	// from the zeroing above) and are reserved lazily on first carve.
	if err := p.initBrk(clk); err != nil {
		return nil, err
	}
	return p, nil
}

// Open validates an existing pool in m, runs lane recovery (rolling back any
// transaction that was active at crash time), and returns the pool.
func Open(clk *sim.Clock, m *pmem.Mapping) (*Pool, error) {
	hdr, err := m.Slice(0, headerSize)
	if err != nil {
		return nil, err
	}
	m.ChargeRead(clk, headerSize)
	if string(hdr[hdrMagic:hdrMagic+8]) != poolMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrBadPool)
	}
	if v := binary.LittleEndian.Uint32(hdr[hdrVersion:]); v != poolVersion {
		return nil, errVersion(v)
	}
	if got, want := binary.LittleEndian.Uint64(hdr[hdrChecksum:]), headerChecksum(hdr); got != want {
		return nil, fmt.Errorf("%w: header checksum %#x != %#x", ErrCorrupt, got, want)
	}
	if got := binary.LittleEndian.Uint64(hdr[hdrPoolSize:]); int64(got) != m.Len() {
		return nil, fmt.Errorf("%w: pool size %d != mapping %d", ErrBadPool, got, m.Len())
	}
	arenas := int(binary.LittleEndian.Uint32(hdr[hdrArenas:]))
	if arenas <= 0 {
		return nil, fmt.Errorf("%w: arena count %d", ErrBadPool, arenas)
	}
	p := newPoolStruct(m,
		int64(binary.LittleEndian.Uint64(hdr[hdrRootOff:])),
		int64(binary.LittleEndian.Uint64(hdr[hdrRootSize:])),
		int64(binary.LittleEndian.Uint64(hdr[hdrHeapOff:])),
		int64(binary.LittleEndian.Uint64(hdr[hdrHeapEnd:])),
		int64(binary.LittleEndian.Uint64(hdr[hdrLaneOff:])),
		int(binary.LittleEndian.Uint32(hdr[hdrLanes:])),
		int64(binary.LittleEndian.Uint32(hdr[hdrLaneSize:])),
		int64(binary.LittleEndian.Uint64(hdr[hdrAllocOff:])),
		arenas,
	)
	if err := p.recover(clk); err != nil {
		return nil, err
	}
	if err := p.rebuildFreeHints(clk); err != nil {
		return nil, err
	}
	return p, nil
}

func newPoolStruct(m *pmem.Mapping, rootOff, rootSize, heapOff, heapEnd, laneOff int64,
	lanes int, laneSize, allocOff int64, arenas int) *Pool {
	p := &Pool{
		m:        m,
		rootOff:  rootOff,
		rootSize: rootSize,
		heapOff:  heapOff,
		heapEnd:  heapEnd,
		laneOff:  laneOff,
		lanes:    lanes,
		laneSize: laneSize,
		allocOff: allocOff,
		laneFree: make(chan int, lanes),
		laneGen:  make([][8]byte, lanes),
		txFree:   make(chan *txn, lanes),
	}
	for i := 0; i < lanes; i++ {
		p.laneFree <- i
	}
	p.arenas = make([]arena, arenas)
	for i := range p.arenas {
		p.arenas[i].metaOff = allocOff + brkMetaSize + int64(i)*allocMetaSize
	}
	// Default extent size scales with the heap so small pools are not eaten
	// by per-arena slack; huge blocks always get exact-size extents.
	p.extent = (heapEnd - heapOff) / int64(arenas*16)
	if p.extent > maxExtent {
		p.extent = maxExtent
	}
	if p.extent < minExtent {
		p.extent = minExtent
	}
	p.extent = alignUp(p.extent, sim.CachelineSize)
	return p
}

// Mapping returns the mapping the pool lives in.
func (p *Pool) Mapping() *pmem.Mapping { return p.m }

// Root returns the offset and size of the fixed root object.
func (p *Pool) Root() (PMID, int64) { return PMID(p.rootOff), p.rootSize }

// Arenas returns the number of allocator arenas.
func (p *Pool) Arenas() int { return len(p.arenas) }

// Stats returns a snapshot of the pool's DRAM-side counters.
func (p *Pool) Stats() Stats {
	return Stats{
		Allocs:       p.stats.allocs.Load(),
		Frees:        p.stats.frees.Load(),
		Transactions: p.stats.transactions.Load(),
		Aborts:       p.stats.aborts.Load(),
		Recovered:    p.stats.recovered.Load(),
		ArenaSteals:  p.stats.arenaSteals.Load(),
		Extents:      p.stats.extents.Load(),
		ExtentBytes:  p.stats.extentBytes.Load(),
		AllocBytes:   p.stats.allocBytes.Load(),
		FreeBytes:    p.stats.freeBytes.Load(),
		UndoEntries:  p.stats.undoEntries.Load(),
		UndoBytes:    p.stats.undoBytes.Load(),
		UndoCovered:  p.stats.undoCovered.Load(),
		HTInPlace:    p.stats.htInPlace.Load(),
		HTRelinked:   p.stats.htRelinked.Load(),
		HTInserted:   p.stats.htInserted.Load(),
	}
}

// checkRange validates a pool-relative range.
func (p *Pool) checkRange(off, n int64) error {
	if off < 0 || n < 0 || n > p.m.Len() || off > p.m.Len()-n {
		return fmt.Errorf("%w: [%d,%d) of %d", ErrBadPointer, off, off+n, p.m.Len())
	}
	return nil
}

// Slice returns the live pool bytes at [off, off+n) with no cost charged.
func (p *Pool) Slice(off PMID, n int64) ([]byte, error) {
	return p.m.Slice(int64(off), n)
}

// read is the pool's one read primitive, the twin of Tx.WriteU64s: the n
// contiguous bytes at off — a word, a run of adjacent header words, a header
// and the bytes behind it — are ONE device access, one Mapping.Slice and one
// ChargeRead of the whole length (the read latency once, the bytes at
// bandwidth). PMEM is priced per access, not per field, so words that sit
// next to each other are read together through here, never one ReadU64 each.
// The bytes returned are the mapped ones, not a copy.
func (p *Pool) read(clk *sim.Clock, off PMID, n int64) ([]byte, error) {
	b, err := p.m.Slice(int64(off), n)
	if err != nil {
		return nil, err
	}
	p.m.ChargeRead(clk, n)
	return b, nil
}

// word decodes the i-th u64 of a run read returned.
func word(b []byte, i int) uint64 { return binary.LittleEndian.Uint64(b[8*i:]) }

// ReadU64 loads a u64 field that stands alone — a bucket slot, a list head,
// the brk: one pointer-chase access, one device read latency. A field with
// neighbours the caller also wants is read with them (read), not here.
func (p *Pool) ReadU64(clk *sim.Clock, off PMID) (uint64, error) {
	b, err := p.read(clk, off, 8)
	if err != nil {
		return 0, err
	}
	return word(b, 0), nil
}

// StoreBytesAt writes b at off outside any transaction, charging the write and
// optionally persisting under the caller's persist point. Callers use it for
// bulk payloads whose atomicity is guaranteed by ordering (write payload,
// persist, then publish the pointer transactionally).
func (p *Pool) StoreBytesAt(clk *sim.Clock, off PMID, b []byte, persist bool, pt pmem.PointID) error {
	if err := p.checkRange(int64(off), int64(len(b))); err != nil {
		return err
	}
	if err := p.m.Capture(int64(off), int64(len(b))); err != nil {
		return err
	}
	dst, err := p.m.Slice(int64(off), int64(len(b)))
	if err != nil {
		return err
	}
	copy(dst, b)
	p.m.ChargeWrite(clk, int64(len(b)))
	if persist {
		return p.m.Persist(clk, int64(off), int64(len(b)), pt)
	}
	return nil
}

// ReadBytes copies n bytes at off into a fresh buffer, charging the read.
func (p *Pool) ReadBytes(clk *sim.Clock, off PMID, n int64) ([]byte, error) {
	src, err := p.read(clk, off, n)
	if err != nil {
		return nil, err
	}
	out := make([]byte, n)
	copy(out, src)
	return out, nil
}

// Lock returns the persistent lock associated with a persistent object: one
// of a fixed stripe of lockStripes, chosen by the object's 8-byte word, so 64
// consecutive words — a hashtable's bucket slots — get distinct stripes.
// Locks live in DRAM and start unlocked after every Open, the same semantics
// PMDK gives PMEMmutex (lock state does not survive restart).
//
// Distinct objects can share a stripe, so no goroutine may hold two Pool
// locks: a second one could be the first, or another holder's first
// (DESIGN.md §7).
func (p *Pool) Lock(id PMID) *sync.RWMutex {
	return &p.locks[(uint64(id)>>3)%lockStripes]
}

func align8(v int64) int64 { return (v + 7) &^ 7 }

func alignUp(v, a int64) int64 { return (v + a - 1) &^ (a - 1) }
