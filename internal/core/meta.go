package core

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"pmemcpy/internal/nd"
	"pmemcpy/internal/node"
	"pmemcpy/internal/pmdk"
	"pmemcpy/internal/serial"
	"pmemcpy/internal/sim"
	"pmemcpy/internal/wire"
)

// The metadata module. Section 3 of the paper makes one decision about
// metadata — a flat hashtable namespace with dims under id+"#dims", or a
// directory tree with a file per variable — and this file is the only code
// that knows it:
//
//   - the record codec: every byte a store publishes besides payload is
//     written and parsed here (DESIGN.md §17 has the on-media table), over one
//     field writer and one cursor (internal/wire);
//   - the namespace: which key a record lives under, which member pool that
//     key hashes to, and the DRAM index that mirrors the records;
//   - the layout as a value: the two answers to "where" implement one
//     interface, chosen once when the handle group opens. The engines call the
//     value; nothing outside this file compares Options.Layout.
//
// cmd/commitvet's "record" and "layout" rules hold the fence.

// Layout selects where pMEMCPY keeps data and metadata.
type Layout int

// Layouts.
const (
	// LayoutHashtable stores all data in a single pool file with a flat
	// persistent-hashtable namespace (the paper's default and the
	// configuration used in its evaluation).
	LayoutHashtable Layout = iota
	// LayoutHierarchy stores each variable in its own file under a
	// directory tree derived from "/"-separated ids.
	LayoutHierarchy
)

// DimsSuffix is appended to an id to form the key holding its dimensions,
// exactly as the paper describes ("by appending '#dims' to the id").
const DimsSuffix = "#dims"

// quarantineKey is the reserved metadata key holding the persistent
// quarantine list. It sorts before every user id that does not itself start
// with '#', keeping Keys() output stable; like every '#'-prefixed key it pins
// to pool 0 (homeIdx), and decodeRecord classifies its tag as owning nothing,
// so it can never be misread as user data.
const quarantineKey = "#quarantine"

// layout is where a handle group keeps its records and payload bytes. The
// pool layout (hashtables over the member pools; the engines in writeplan.go
// and readplan.go are its commit and stored) and the hierarchy layout
// (hierarchy.go) implement it.
//
// Arguments of an interface call escape to the heap, so the methods on the
// per-op path take and return values — a unit's block record — never a
// pointer into the caller's frame: planning an op through the layout
// allocates nothing. A read plan is resolved by pointer, so that is not an
// interface method: shared.resolve calls the concrete layout's.
type layout interface {
	// get, put and del address one record of the namespace by key and
	// companion suffix ("" or DimsSuffix); keys lists every key, unsorted.
	// put and del change the record on p's behalf — on the pool layout, as one
	// commit-engine record change that takes the blocks it owned with it.
	get(clk *sim.Clock, id, suffix string) ([]byte, bool, error)
	put(p *PMEM, id, suffix string, rec []byte) error
	del(p *PMEM, id string) (bool, error)
	keys(clk *sim.Clock) ([]string, error)

	// commit makes a write plan durable and publishes it; the planner reads
	// the outcome off the plan's groups.
	commit(p *PMEM, plan writePlan) error
	// stored returns the bytes of one stored block a resolved read plan
	// touches (shared.resolve), and chargeUnit accounts one unit consumed on
	// the caller's goroutine.
	stored(p *PMEM, u readUnit) ([]byte, error)
	chargeUnit(p *PMEM, u readUnit, decPasses float64)

	// pooled is the one fact about a layout the engines branch on: blocks
	// live in pmdk pools. Only then do records publish a CRC32C per block
	// (reads can verify, Scrub and DeepCheck have work), are stored bytes
	// mapped memory a view can alias, and are there transactions, wide waves
	// and the async pipeline.
	pooled() bool
}

// newLayout builds the handle group's layout from its resolved options — the
// one place Options.Layout is examined.
func newLayout(clk *sim.Clock, st *shared, n *node.Node, path string) (layout, error) {
	if st.opt.Layout == LayoutHierarchy {
		if st.opt.Pools > 1 {
			return nil, fmt.Errorf("core: WithPools(%d) requires the hashtable layout", st.opt.Pools)
		}
		return &hierStore{node: n, root: path}, n.FS.MkdirAll(clk, path)
	}
	return poolLayout{st}, st.openPools(clk, n, path)
}

// resolve finds the stored blocks a read plan touches, under the id's read
// lock, and leaves them in the plan. Each layout has its own; it is called on
// the concrete layout, not through the interface, so that the plan stays on
// its planner's stack.
func (st *shared) resolve(p *PMEM, pl *readPlan) error {
	if h, ok := st.lay.(*hierStore); ok {
		return h.resolve(p, pl)
	}
	return poolLayout{st}.resolve(p, pl)
}

// --- record codec ---

// blockRec is a reference to one stored block, as the record forms below
// carry it; no form carries every field. crc is the CRC32C of the block's
// encLen encoded bytes, computed during the serialize-into-PMEM copy and
// published atomically with the rest of the record. pool is the member pool
// holding the payload — 0 on single-pool stores, and the stripe target on
// sharded namespaces, where a parallel store's shards round-robin from the
// id's home pool across all members. Under the hierarchy layout data is the
// payload's offset in the variable's file. (Field order is the struct's, not
// the media's: crc sits in the padding behind dtype and pool.)
type blockRec struct {
	dtype  serial.DType
	pool   uint8
	crc    uint32
	offs   []uint64
	counts []uint64
	data   pmdk.PMID
	encLen int64
}

// poolPMID is a fully qualified block address on a sharded namespace: PMIDs
// are pool-relative offsets, so blocks from different member pools can carry
// the same PMID and the quarantine must key on the pair.
type poolPMID struct {
	pool uint8
	id   pmdk.PMID
}

func (b *blockRec) addr() poolPMID { return poolPMID{pool: b.pool, id: b.data} }

// refFields names the fields of a blockRec a record form carries. On media
// they appear in the order declared here.
type refFields uint8

const (
	refShape refFields = 1 << iota // u8 dtype | u8 rank, then after the pool: offs u64[rank] | counts u64[rank]
	refPool                        // u8 member pool
	refData                        // u64 PMID
	refLen                         // u64 encoded length
	refCRC                         // u32 CRC32C
)

// The record forms. A list is tag | u32 count | entries [| trailer]; its
// pooled variant (tag+1) gives every entry a pool byte and is written exactly
// when an entry lives outside pool 0, so single-pool stores keep producing the
// legacy bytes. Only a block list that has dropped blocks writes the trailer.
// A whole value is never pooled: it lives in its id's home pool — in a block
// of its own behind a value ref, or, when it is small, in the record itself.
const (
	valueRefTag    = 0xA7
	valueRefFields = refData | refLen | refCRC
	valueRefLen    = 1 + 8 + 8 + 4
	// The inline form, inlineTag | crc32c u32 | block bytes, holds exactly the
	// bytes a whole value's block would (the 1-byte dtype tag, then the codec's
	// encoding) behind the CRC32C of those bytes. A reader's block reference
	// points into the record's own value block, at inlinePrefix.
	inlineTag    = 0xA8
	inlinePrefix = 1 + 4
	// inlineMax is the largest block a whole value is published inline at: the
	// record then fills a 128-byte class block's 112 payload bytes — bp4's
	// float64 scalar (41 B) and 64-char string (89 B) both fit. Chosen from the
	// measured table in DESIGN §17; far below a quarter of a lane, so a
	// same-length overwrite always takes pmdk's in-place form.
	inlineMax = 112 - inlinePrefix
	// frameFields is the header in front of every block in a hierarchy
	// variable's file; the payload follows it.
	frameFields = refShape | refLen
)

type listForm struct {
	tag    byte
	fields refFields
	what   string
}

var (
	blockList = listForm{0xB1, refShape | refData | refLen | refCRC, "block list"}
	quarList  = listForm{0xC3, refData, "quarantine list"}
)

// trailer is what a block list carries behind its entries once an overwrite
// has dropped blocks from it (publishGroup): f64 min | f64 max, the value
// range of every block it dropped, so MinMax keeps meaning the range of every
// value stored under the id since its record was created. A list that never
// dropped a block carries none and keeps the bytes it always had. NaN|NaN
// marks a range that lost a block it could not read.
type trailer struct {
	min, max float64
	ok       bool // the list carries one
}

const trailerLen = 16

// fold widens the range by [mn, mx] exactly as MinMax folds a listed block's
// statistics; a NaN range stays NaN.
func (tr *trailer) fold(mn, mx float64) {
	if !tr.ok {
		*tr = trailer{min: math.Inf(1), max: math.Inf(-1), ok: true}
	}
	if mn < tr.min {
		tr.min = mn
	}
	if mx > tr.max {
		tr.max = mx
	}
}

// poisoned reports whether the range lost a block it could not read.
func (tr trailer) poisoned() bool { return tr.ok && math.IsNaN(tr.min) }

// size is the encoded size of one reference of the given rank: the fixed
// width of each field carried, in bit order, plus the shape's two extents.
func (f refFields) size(rank int) int {
	n := 0
	for bit, width := range [...]int{2, 1, 8, 8, 4} {
		if f&(1<<bit) != 0 {
			n += width
		}
	}
	if f&refShape != 0 {
		n += 16 * rank
	}
	return n
}

// append writes b's fields to buf, which the caller sized with size.
func (f refFields) append(buf []byte, b *blockRec) []byte {
	if f&refShape != 0 {
		buf = append(buf, byte(b.dtype), byte(len(b.offs)))
	}
	if f&refPool != 0 {
		buf = append(buf, b.pool)
	}
	if f&refShape != 0 {
		for _, o := range b.offs {
			buf = wire.AppendUint(buf, o, 8)
		}
		for _, c := range b.counts {
			buf = wire.AppendUint(buf, c, 8)
		}
	}
	if f&refData != 0 {
		buf = wire.AppendUint(buf, uint64(b.data), 8)
	}
	if f&refLen != 0 {
		buf = wire.AppendUint(buf, uint64(b.encLen), 8)
	}
	if f&refCRC != 0 {
		buf = wire.AppendUint(buf, uint64(b.crc), 4)
	}
	return buf
}

// read decodes one reference, carving its offs and counts from the end of
// *arena. Only an impossible rank is an error here; a short buffer leaves
// c.Bad for the caller to check once per record.
func (f refFields) read(c *wire.Cursor, arena *[]uint64) (b blockRec, err error) {
	rank := 0
	if f&refShape != 0 {
		b.dtype, rank = serial.DType(c.Uint(1)), int(c.Uint(1))
		if rank > serial.MaxDims {
			return b, fmt.Errorf("core: record rank %d", rank)
		}
	}
	if f&refPool != 0 {
		b.pool = uint8(c.Uint(1))
	}
	if f&refShape != 0 {
		n := len(*arena)
		*arena = c.AppendDims(*arena, 2*rank)
		a := (*arena)[n:]
		b.offs, b.counts = a[:rank:rank], a[rank:2*rank:2*rank]
	}
	if f&refData != 0 {
		b.data = pmdk.PMID(c.Uint(8))
	}
	if f&refLen != 0 {
		b.encLen = int64(c.Uint(8))
	}
	if f&refCRC != 0 {
		b.crc = uint32(c.Uint(4))
	}
	return b, nil
}

func (l listForm) encode(refs []blockRec, tr trailer) []byte {
	tag, f := l.tag, l.fields
	for i := range refs {
		if refs[i].pool != 0 {
			tag, f = l.tag+1, l.fields|refPool
			break
		}
	}
	size := 5
	for i := range refs {
		size += f.size(len(refs[i].offs))
	}
	if tr.ok {
		size += trailerLen
	}
	buf := wire.AppendUint(append(make([]byte, 0, size), tag), uint64(len(refs)), 4)
	for i := range refs {
		buf = f.append(buf, &refs[i])
	}
	if tr.ok {
		buf = wire.AppendUint(wire.AppendUint(buf, math.Float64bits(tr.min), 8), math.Float64bits(tr.max), 8)
	}
	return buf
}

// decode decodes a list and its trailer: exactly 0 or trailerLen bytes follow
// the entries.
func (l listForm) decode(raw []byte) ([]blockRec, trailer, error) {
	var tr trailer
	c := wire.Cursor{Raw: raw}
	f := l.fields
	switch tag := byte(c.Uint(1)); {
	case c.Bad || (tag != l.tag && tag != l.tag+1):
		return nil, tr, fmt.Errorf("core: not a %s", l.what)
	case tag == l.tag+1:
		f |= refPool
	}
	// A count the buffer cannot possibly hold is corruption; rejecting it here
	// keeps an attacker-controlled count from sizing the allocation below.
	n := c.Uint(4)
	if c.Bad || n > uint64(len(c.Raw)/f.size(0)) {
		return nil, tr, fmt.Errorf("core: %s truncated", l.what)
	}
	// Every reference's extents come from one array, sized by the first
	// reference's rank — an array's blocks share its rank. A list costs two
	// allocations, whatever its length.
	out := make([]blockRec, 0, n)
	var arena []uint64
	if f&refShape != 0 && n > 0 && len(c.Raw) > 1 {
		arena = make([]uint64, 0, 2*int(n)*int(c.Raw[1]))
	}
	for ; n > 0; n-- {
		b, err := f.read(&c, &arena)
		if err != nil {
			return nil, tr, err
		}
		if c.Bad {
			return nil, tr, fmt.Errorf("core: %s truncated", l.what)
		}
		out = append(out, b)
	}
	switch len(c.Raw) {
	case 0:
	case trailerLen:
		tr = trailer{min: math.Float64frombits(c.Uint(8)), max: math.Float64frombits(c.Uint(8)), ok: true}
	default:
		return nil, tr, fmt.Errorf("core: %s with %d trailing bytes: %w", l.what, len(c.Raw), ErrCorrupt)
	}
	return out, tr, nil
}

// encodeValueRef renders a whole value's pointer record.
func encodeValueRef(b *blockRec) []byte {
	return valueRefFields.append(append(make([]byte, 0, valueRefLen), valueRefTag), b)
}

// sealInline finishes an inline record whose block bytes, summing to crc,
// already sit at rec[inlinePrefix:]: it writes the prefix in front of them.
func sealInline(rec []byte, crc uint32) {
	wire.AppendUint(append(rec[:0], inlineTag), uint64(crc), 4)
}

// recordKind classifies a metadata record by what storage it references.
type recordKind uint8

const (
	recRaw       recordKind = iota // raw metadata (dims, quarantine list): owns nothing
	recBlockList                   // an array's block list
	recValueRef                    // a whole value's pointer record: owns the block it names
	recInline                      // a whole value in its record: its block is the record's own bytes
)

func (k recordKind) String() string {
	return [...]string{"raw record", "block list", "value ref", "inline value"}[k]
}

// whole reports whether the record holds a whole value (a datum).
func (k recordKind) whole() bool { return k == recValueRef || k == recInline }

// decodeRecord decodes the payload blocks a metadata record references: a
// block list's blocks (and its trailer), a value ref's single block (in the
// id's home pool, at.pool), an inline value's — the bytes behind the prefix of
// the record's own value block, at.id, which the allocator frees with the
// record and no caller may — or nothing for raw metadata. It is the one place
// record tags are dispatched. buf is optional scratch so a whole value
// resolves without a heap allocation.
func decodeRecord(raw []byte, at poolPMID, buf []blockRec) ([]blockRec, recordKind, trailer, error) {
	switch {
	case len(raw) == 0:
	case raw[0] == blockList.tag || raw[0] == blockList.tag+1:
		blocks, tr, err := blockList.decode(raw)
		return blocks, recBlockList, tr, err
	case raw[0] == valueRefTag && len(raw) == valueRefLen:
		c := wire.Cursor{Raw: raw[1:]}
		b, _ := valueRefFields.read(&c, nil)
		b.pool = at.pool
		return append(buf[:0], b), recValueRef, trailer{}, nil
	case raw[0] == inlineTag:
		n := len(raw) - inlinePrefix
		if n < 1 || n > inlineMax {
			return nil, recInline, trailer{}, fmt.Errorf("core: inline value of %d bytes (1..%d)", n, inlineMax)
		}
		c := wire.Cursor{Raw: raw[1:]}
		return append(buf[:0], blockRec{pool: at.pool, crc: uint32(c.Uint(4)),
			data: at.id + inlinePrefix, encLen: int64(n)}), recInline, trailer{}, nil
	}
	return nil, recRaw, trailer{}, nil
}

// dimsRecord is the id+"#dims" entry: u8 dtype | u8 rank | dims u64[rank].
type dimsRecord struct {
	dtype serial.DType
	dims  []uint64
}

func encodeDims(r dimsRecord) []byte {
	buf := append(make([]byte, 0, 2+8*len(r.dims)), byte(r.dtype), byte(len(r.dims)))
	for _, d := range r.dims {
		buf = wire.AppendUint(buf, d, 8)
	}
	return buf
}

// decodeDims decodes a dims record into buf's array when it is large enough.
func decodeDims(raw []byte, buf []uint64) (dimsRecord, error) {
	c := wire.Cursor{Raw: raw}
	r := dimsRecord{dtype: serial.DType(c.Uint(1))}
	rank := int(c.Uint(1))
	if cap(buf) < rank {
		buf = make([]uint64, 0, rank)
	}
	r.dims = c.AppendDims(buf[:0], rank)
	if c.Bad {
		return dimsRecord{}, fmt.Errorf("core: dims record truncated")
	}
	return r, nil
}

// frameLen is the length of the frame header whose first two bytes are head.
func frameLen(head []byte) int { return frameFields.size(int(head[1])) }

// decodeFrame decodes a frame header read from a variable's file, with room
// bytes behind it. The file is outside the allocator's and the hashtable's
// protection, so every length in it is checked against the file before
// anything is sized by it.
func decodeFrame(hdr []byte, room int64) (blockRec, error) {
	c := wire.Cursor{Raw: hdr}
	var arena []uint64
	b, err := frameFields.read(&c, &arena)
	switch {
	case err != nil:
	case c.Bad:
		err = errors.New("core: block frame truncated")
	case b.encLen < 0 || b.encLen > room:
		err = fmt.Errorf("core: block frame claims %d payload bytes, file has %d", b.encLen, room)
	}
	if err != nil {
		err = fmt.Errorf("%v: %w", err, ErrCorrupt)
	}
	return b, err
}

// --- namespace ---

// placementKey reduces an id to its placement key: the "#dims" companion
// follows its base variable, so a variable's records co-locate, share one
// lock, and share one variable's DRAM state.
func placementKey(id string) string {
	if n := len(id) - len(DimsSuffix); n > 0 && id[n:] == DimsSuffix {
		id = id[:n]
	}
	return id
}

// homeIdx returns the id's home pool index: the member pool holding its
// metadata entry and its serially stored data blocks. Deterministic FNV-1a
// striping (pmdk.HashKey, the tables' own hash), so every rank and every
// reopen computes the same placement;
// reserved '#'-prefixed keys (the quarantine list) pin to pool 0.
func (st *shared) homeIdx(id string) int {
	n := len(st.pools)
	if n == 1 {
		return 0
	}
	key := placementKey(id)
	if len(key) > 0 && key[0] == '#' {
		return 0
	}
	return int(pmdk.HashKey(key) % uint64(n))
}

// dims returns id's dims record, decoded into buf's array when that is large
// enough; ok is false when id has none. The caller holds v, id's lock, which
// every writer of the record holds too. v's dims answer when v knows them — a
// hit touches neither the device nor the clock — and a miss reads the record,
// on the pool layout where it sits, as a whole value's is (record), and
// installs what it decoded.
func (p *PMEM) dims(v *variable, id string, buf []uint64) (rec dimsRecord, ok bool, err error) {
	key := id + DimsSuffix
	f := p.fields(key) & knownDims
	if f != 0 && v.has(f) {
		return dimsRecord{dtype: v.dtype, dims: append(buf[:0], v.dims[:v.rank]...)}, true, nil
	}
	var raw []byte
	if p.st.lay.pooled() {
		raw, _, ok, err = p.record(v, key)
	} else {
		raw, ok, err = p.st.lay.get(p.comm.Clock(), id, DimsSuffix)
	}
	if err != nil || !ok {
		return rec, ok, err
	}
	if rec, err = decodeDims(raw, buf); err == nil && len(rec.dims) <= serial.MaxDims {
		v.install(f, func() { v.dtype, v.rank = rec.dtype, uint8(copy(v.dims[:], rec.dims)) })
	}
	return rec, true, err
}

// heldDims is dims with a missing record reported as ErrNotFound and, when as
// names an element type (a typed view's plan), a declared type of another size
// as ErrTypeMismatch.
func (p *PMEM) heldDims(v *variable, id string, as serial.DType, buf []uint64) (dimsRecord, error) {
	rec, ok, err := p.dims(v, id, buf)
	switch {
	case err == nil && !ok:
		err = fmt.Errorf("core: %q has no dims (Alloc not called): %w", id, ErrNotFound)
	case err == nil && as != serial.Invalid && rec.dtype != as && rec.dtype.Size() != as.Size():
		err = fmt.Errorf("core: array %q holds %v, requested %v: %w", id, rec.dtype, as, ErrTypeMismatch)
	}
	return rec, err
}

// lockedDims is heldDims for a caller that does not hold id's lock: it takes
// the read side around the read, and returns id's variable beside the record.
func (p *PMEM) lockedDims(id string, buf []uint64) (*variable, dimsRecord, error) {
	v := p.variable(id)
	v.RLock()
	defer v.RUnlock()
	rec, err := p.heldDims(v, id, serial.Invalid, buf)
	return v, rec, err
}

// datum checks a block store's region against the dims — it lies inside
// them, and data covers it — and returns the datum the codec will encode.
func (r dimsRecord) datum(offs, counts []uint64, data []byte) (serial.Datum, error) {
	if err := nd.CheckBlock(r.dims, offs, counts); err != nil {
		return serial.Datum{}, err
	}
	need := int64(nd.Size(counts)) * int64(r.dtype.Size())
	if int64(len(data)) < need {
		return serial.Datum{}, fmt.Errorf("core: data %d bytes, block needs %d: %w", len(data), need, ErrOutOfBounds)
	}
	return serial.Datum{Type: r.dtype, Dims: counts, Payload: data[:need]}, nil
}

// publishQuarantine persists the store-wide quarantine list under its
// reserved key; an empty list deletes the key.
func (p *PMEM) publishQuarantine(refs []blockRec) error {
	if len(refs) == 0 {
		_, err := p.st.lay.del(p, quarantineKey)
		return err
	}
	return p.st.lay.put(p, quarantineKey, "", quarList.encode(refs, trailer{}))
}

// loadQuarantine populates the DRAM mirror of the persistent quarantine list
// at open time, so fail-fast reads work from the first op after a reopen.
func (st *shared) loadQuarantine(clk *sim.Clock) error {
	raw, ok, err := st.lay.get(clk, quarantineKey, "")
	if err != nil || !ok {
		return err
	}
	refs, _, err := quarList.decode(raw)
	for i := range refs {
		st.quar[refs[i].addr()] = struct{}{}
	}
	st.quarLen.Store(int64(len(st.quar)))
	return err
}

// --- the DRAM index ---

// variable is one variable's DRAM state beside the one lock that guards it.
// The id and its "#dims" companion share it (placementKey). Persistent
// metadata — the dims record and the block list — lives in the PMEM
// hashtable; the variable keeps both records' hashtable entries, the decoded
// dims and the decoded block list (the index), so a repeat lookup walks no
// bucket chain and a repeat LoadSub, MinMax or BlockStatsOf re-reads and
// re-decodes neither record (Blizzard, Fernando et al.: a persistent
// structure's fast path wants a DRAM index kept coherent under the
// structure's own lock). Measured with the index off, a miss on every plan
// costs `load_virt_us_per_op` +12 % on smallkv, +31 % on ckpt-restart and
// +221 % on stream-raw (DESIGN §8), so it stays.
//
// One rule keeps every field coherent. A field is valid while its bit is set
// in known; which fields a key may touch is fields' answer alone.
//   - The write side sets or clears fields directly: commitEngine.close, under
//     the write lock, records the entry the change committed (or forgets it
//     after an error), forgets the index on every change and the dims on a
//     change of the "#dims" record (settle).
//   - A reader that finds a field unknown reads the media itself, charged as
//     any read, and installs what it read under install's mutex, unless a
//     racing reader got there first; a loser keeps its own decode. Readers
//     hold the read side from their lookup through the last byte they touch,
//     so no change can fall between a reader's media reads and its install,
//     and an installed field is never stale.
//
// Installed fields are immutable until the write side clears them. Crash
// recovery needs no protocol: handles open at crash time are dead by
// contract, and a re-Mmap starts with no variables.
type variable struct {
	sync.RWMutex
	known atomic.Uint32 // which fields below are valid: known* bits
	fill  sync.Mutex    // serializes readers' installs

	at    [2]pmdk.PMID // knownAt, knownDimsAt: the id's and its "#dims" record's hashtable entries
	dtype serial.DType // knownDims: the "#dims" record, decoded
	rank  uint8
	dims  [serial.MaxDims]uint64
	index blockIndex // knownIndex: the id's block list, decoded
}

// The bits of variable.known. An entry's bit is 1 << its slot in at.
const (
	knownAt     uint32 = 1 << iota // at[0]
	knownDimsAt                    // at[1]
	knownDims                      // dtype, rank, dims
	knownIndex                     // index

	knownEntries = knownAt | knownDimsAt
)

// fields returns the bits of the state key's variable keeps for key's record:
// a read of key may use or install only these, and a change of key forgets
// them. An id's record feeds its entry and the block index, a "#dims"
// record its entry and the dims; a reserved '#' key (the quarantine list,
// whose writers hold no variable lock), a "#dims" id's own "#dims" key and
// every key of the hierarchy layout (its records are files its writers change
// without close) feed none.
func (p *PMEM) fields(key string) uint32 {
	switch base := placementKey(key); {
	case !p.st.lay.pooled() || len(key) > 0 && key[0] == '#': // none
	case base == key:
		return knownAt | knownIndex
	case base == placementKey(base):
		return knownDimsAt | knownDims
	}
	return 0
}

// has reports whether the fields of bits are valid.
func (v *variable) has(bits uint32) bool { return v.known.Load()&bits == bits }

// entry returns the entry of the record whose fields are f when v knows it,
// else Null: the hint record and open hand pmdk (GetRefAt, UpdateAt) — one
// entry read instead of a bucket-chain walk. pmdk checks a hint before it
// trusts it, so a wrong one costs the walk, never a wrong record.
func (v *variable) entry(f uint32) pmdk.PMID {
	if bit := f & knownEntries; bit != 0 && v.has(bit) {
		return v.at[bit>>1]
	}
	return pmdk.Null
}

// install runs set, which fills bit's fields with what a reader read off the
// media, and marks them valid, unless they are already (a racing reader won);
// bit 0 installs nothing. The caller holds v's lock, either side.
func (v *variable) install(bit uint32, set func()) {
	if bit != 0 && !v.has(bit) {
		v.fill.Lock()
		if !v.has(bit) {
			set()
			v.known.Or(bit)
		}
		v.fill.Unlock()
	}
}

// settle ends a change of a record whose fields are f (fields), under v's
// write lock: v forgets the index and f, and knows the record's entry again
// when the change committed it. It reports whether a known index was
// dropped. Only a dropped index is zeroed, to release its blocks: zeroing an
// unknown one would cost every store a write to a cache line it otherwise
// leaves alone (smallkv stores ran about 8 % slower with it on a 2-vCPU
// host).
func (v *variable) settle(f uint32, entry pmdk.PMID, committed bool) bool {
	dropped := v.known.And(^(f|knownIndex))&knownIndex != 0
	if dropped {
		v.index = blockIndex{}
	}
	if bit := f & knownEntries; committed && bit != 0 {
		v.at[bit>>1] = entry
		v.known.Or(bit)
	}
	return dropped
}

// variable returns the variable id belongs to.
func (p *PMEM) variable(id string) *variable {
	id = placementKey(id)
	st := p.st
	st.varMu.RLock()
	v := st.vars[id]
	st.varMu.RUnlock()
	if v != nil {
		return v
	}
	st.varMu.Lock()
	defer st.varMu.Unlock()
	if v = st.vars[id]; v == nil {
		v = new(variable)
		st.vars[id] = v
	}
	return v
}

// blockIndex is one variable's decoded block list in publish order (later
// blocks shadow earlier ones) and its trailer. ascending records that the
// blocks are disjoint and ascending along dim 0 in publish order, so no block
// shadows another and a request's blocks are found by binary search
// (gatherScratch.plan).
type blockIndex struct {
	blocks    []blockRec
	dropped   trailer
	hasBlocks bool
	ascending bool
}

// index returns id's block index: v's on a hit, which touches neither the
// device nor the clock, else built from the block list (same metadata charge
// as an uncached read) and installed. The dims record lives in v's dims, not
// here. The caller holds v, id's variable, read-locked — the read engine is
// the only caller and holds it across resolve AND execution. It must not be
// re-acquired here: a recursive RLock can deadlock against a queued writer.
//
// The list is decoded where it sits, so a build costs a fixed number of
// allocations — the block records and one array for all their extents —
// however many blocks it indexes.
func (p *PMEM) index(v *variable, id string) (blockIndex, error) {
	f := p.fields(id) & knownIndex
	if f != 0 && v.has(f) {
		p.st.ins.cacheHits.Inc()
		return v.index, nil
	}
	p.st.ins.cacheMisses.Inc()
	raw, _, hasBlocks, err := p.record(v, id)
	e := blockIndex{hasBlocks: hasBlocks}
	if err == nil && hasBlocks {
		e.blocks, e.dropped, err = blockList.decode(raw)
	}
	if err != nil {
		return blockIndex{}, err
	}
	e.ascending = ascending(e.blocks)
	v.install(f, func() { v.index = e })
	return e, nil
}

// ascending reports whether every block lies wholly after its predecessor
// along dim 0.
func ascending(blocks []blockRec) bool {
	for i := range blocks {
		if len(blocks[i].offs) == 0 || i > 0 && blocks[i].offs[0] < blocks[i-1].offs[0]+blocks[i-1].counts[0] {
			return false
		}
	}
	return true
}

// --- the pool layout ---

// poolLayout is the paper's default: one persistent hashtable per member
// pool holds the records, keys hash to a home pool, payload blocks are pmdk
// allocations dereferenced through the mapping.
type poolLayout struct{ st *shared }

func (l poolLayout) pooled() bool { return true }

func (l poolLayout) get(clk *sim.Clock, id, suffix string) ([]byte, bool, error) {
	key := id + suffix
	return l.st.hts[l.st.homeIdx(key)].Get(clk, []byte(key))
}

// keys merges every member pool's shard of the namespace; ids are unique
// across shards (each lives only in its home pool), so no dedup is needed.
func (l poolLayout) keys(clk *sim.Clock) (out []string, err error) {
	for pi := 0; pi < len(l.st.hts) && err == nil; pi++ {
		err = l.st.hts[pi].Range(clk, func(key []byte, _ pmdk.PMID, _ int64) bool {
			out = append(out, string(key))
			return true
		})
	}
	return out, err
}

// resolve reads a record plan's units off the id's metadata record and a
// request or statistics plan's off the DRAM index: the dims and the blocks
// its variable keeps.
func (l poolLayout) resolve(p *PMEM, pl *readPlan) error {
	if pl.consume == consumeClone || pl.consume == consumeCRC {
		raw, at, ok, err := p.record(pl.v, pl.id)
		if err != nil {
			return err
		}
		if !ok {
			return fmt.Errorf("core: id %q: %w", pl.id, ErrNotFound)
		}
		var one [1]blockRec
		blocks, kind, dropped, err := decodeRecord(raw, at, one[:0])
		if err != nil {
			return err
		}
		switch pl.kind, pl.dropped = kind, dropped; {
		case kind.whole():
			pl.one[0], pl.single = readUnit{src: blocks[0], bytes: blocks[0].encLen}, true
		case pl.consume == consumeClone:
			// The id exists but holds something else (a block list, raw
			// metadata): a kind mismatch, not a missing id.
			return fmt.Errorf("core: id %q does not hold a datum: %w", pl.id, ErrTypeMismatch)
		default:
			pl.units = p.gather().whole(blocks)
		}
		return nil
	}
	var buf [serial.MaxDims]uint64
	rec, err := p.heldDims(pl.v, pl.id, pl.as, buf[:0])
	if err != nil {
		return err
	}
	e, err := p.index(pl.v, pl.id)
	if err != nil {
		return err
	}
	if pl.consume != consumeStats {
		if err := pl.bound(rec); err != nil {
			return err
		}
	}
	switch {
	case !e.hasBlocks:
		return fmt.Errorf("core: id %q has no stored blocks: %w", pl.id, ErrNotFound)
	case pl.consume == consumeStats:
		pl.dropped, pl.units = e.dropped, p.gather().whole(e.blocks)
	default:
		pl.units = p.gather().plan(&e, pl.offs, pl.counts, pl.esize)
	}
	return nil
}
