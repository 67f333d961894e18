package core

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

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
// per-op path take and return values — a plan by value, a unit's block record
// — never a pointer into the caller's frame: planning an op through the
// layout allocates nothing.
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
	// resolve finds the stored blocks a read plan touches, under the id's
	// read lock. stored returns one such block's bytes, and chargeUnit
	// accounts one unit consumed on the caller's goroutine.
	resolve(p *PMEM, pl readPlan) (resolution, error)
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
// lock, and share one DRAM index entry.
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

// dims reads id's dims companion and decodes it into buf's array when that is
// large enough; ok is false when id has none. On the pool layout the record
// is read where it sits, as a whole value's is (record): the caller holds v,
// id's lock, which every writer of the record holds too.
func (p *PMEM) dims(v *variable, id string, buf []uint64) (rec dimsRecord, ok bool, err error) {
	var raw []byte
	if p.st.lay.pooled() {
		raw, _, ok, err = p.record(v, id+DimsSuffix)
	} else {
		raw, ok, err = p.st.lay.get(p.comm.Clock(), id, DimsSuffix)
	}
	if err != nil || !ok {
		return rec, ok, err
	}
	rec, err = decodeDims(raw, buf)
	return rec, true, err
}

// heldDims is dims with a missing record reported as ErrNotFound.
func (p *PMEM) heldDims(v *variable, id string, buf []uint64) (dimsRecord, error) {
	rec, ok, err := p.dims(v, id, buf)
	if err == nil && !ok {
		err = fmt.Errorf("core: %q has no dims (Alloc not called): %w", id, ErrNotFound)
	}
	return rec, err
}

// loadDims is heldDims for a caller that does not hold id's lock: it takes the
// read side around the read.
func (p *PMEM) loadDims(id string, buf []uint64) (dimsRecord, error) {
	v := p.variable(id)
	v.RLock()
	defer v.RUnlock()
	return p.heldDims(v, id, buf)
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
// hashtable; idx mirrors both, so a repeat LoadSub, MinMax or BlockStatsOf
// re-reads and re-decodes neither (Blizzard, Fernando et al.: a persistent
// structure's fast path wants a DRAM index kept coherent under the
// structure's own lock). Measured with the index off, a miss on every plan
// costs `load_virt_us_per_op` +12 % on smallkv, +31 % on ckpt-restart and
// +221 % on stream-raw (DESIGN §8), so it stays.
//
// Coherence: every writer of either record republishes and then drops idx
// under the write side; the read engine loads, builds and installs idx under
// the read side, which it holds from its metadata lookup through the last
// byte it touches. No republish can fall between a reader's metadata reads
// and its install, so an installed index is never stale and needs no version.
// An index is immutable once installed.
//
// What is never indexed: the hierarchy layout (metadata are files, reads go
// through the FS model), raw metadata values (scalars, strings, structs),
// negative lookups, and "#dims" ids, which share their base's lock but never
// read or install its index. Crash recovery needs no protocol: handles open at
// crash time are dead by contract, and a re-Mmap starts with no variables.
//
// The variable is also the namespace's key-to-entry index: at holds the
// hashtable entry (pmdk.PMID) the id's record and its "#dims" record were last
// found in, 0 when unknown, and every lookup and record change of either
// passes it to pmdk as a hint (GetRefAt, UpdateAt) — one entry read instead
// of a bucket-chain walk. Coherence is the lock's again: a reader stores what
// it found under the read side (every reader finds the same entry), and a
// record change stores the entry it committed, or 0 after any error, under
// the write side. pmdk checks a hint before it trusts it, so a wrong one
// costs the walk, never a wrong record. Reserved '#' keys (the quarantine
// list) are never hinted: their writers hold no variable lock.
type variable struct {
	sync.RWMutex
	idx atomic.Pointer[cacheEntry]
	at  [2]atomic.Uint64
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

// hint returns the slot holding where key's record was last found — key is
// v's id or its "#dims" companion — or nil for a reserved '#' key.
func (v *variable) hint(key string) *atomic.Uint64 {
	switch {
	case len(key) > 0 && key[0] == '#':
		return nil
	case key != placementKey(key):
		return &v.at[1]
	}
	return &v.at[0]
}

// last is key's hint: the entry its record was last found in, or Null.
func (v *variable) last(key string) pmdk.PMID {
	if h := v.hint(key); h != nil {
		return pmdk.PMID(h.Load())
	}
	return pmdk.Null
}

// found leaves e, the entry key's record was just found or committed in
// (Null: absent, or unknown after an error), as key's hint.
func (v *variable) found(key string, e pmdk.PMID) {
	if h := v.hint(key); h != nil && h.Load() != uint64(e) {
		h.Store(uint64(e))
	}
}

// install makes e the index id's reads see — unless id is a "#dims" id.
func (v *variable) install(id string, e *cacheEntry) {
	if id == placementKey(id) {
		v.idx.Store(e)
	}
}

// cacheEntry is one variable's DRAM index: decoded dims, and the decoded
// block list in publish order (later blocks shadow earlier ones) and its
// trailer.
type cacheEntry struct {
	dims      dimsRecord
	blocks    []blockRec
	dropped   trailer
	hasBlocks bool
}

// blockIndex returns id's DRAM index, building it from the dims record and
// the block list on a miss (same metadata charges as an uncached read); a hit
// touches neither the device nor the clock.
//
// The caller holds v, id's variable, read-locked — the read engine is the only
// caller and holds it across resolve AND execution — which is what makes the
// install safe. It must not be re-acquired here: a recursive RLock can
// deadlock against a queued writer.
//
// Both records are decoded where they sit, so an entry costs a fixed number of
// allocations — itself, its dims, the block records and one array for all
// their extents — however many blocks it indexes.
func (p *PMEM) blockIndex(v *variable, id string) (*cacheEntry, error) {
	if e := v.idx.Load(); e != nil && id == placementKey(id) {
		p.st.ins.cacheHits.Inc()
		return e, nil
	}
	p.st.ins.cacheMisses.Inc()
	rec, err := p.heldDims(v, id, nil)
	if err != nil {
		return nil, err
	}
	raw, _, hasBlocks, err := p.record(v, id)
	var blocks []blockRec
	var dropped trailer
	if err == nil && hasBlocks {
		blocks, dropped, err = blockList.decode(raw)
	}
	if err != nil {
		return nil, err
	}
	e := &cacheEntry{dims: rec, blocks: blocks, dropped: dropped, hasBlocks: hasBlocks}
	v.install(id, e)
	return e, nil
}

// invalidate drops v's DRAM index. Writers call it under v's write lock,
// after republishing either record.
func (p *PMEM) invalidate(v *variable) {
	v.idx.Store(nil)
	p.st.ins.cacheInvalidations.Inc()
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
// request or statistics plan's off the DRAM index.
func (l poolLayout) resolve(p *PMEM, pl readPlan) (r resolution, err error) {
	if pl.consume == consumeClone || pl.consume == consumeCRC {
		raw, at, ok, err := p.record(pl.v, pl.id)
		if err != nil {
			return r, err
		}
		if !ok {
			return r, fmt.Errorf("core: id %q: %w", pl.id, ErrNotFound)
		}
		var one [1]blockRec
		blocks, kind, dropped, err := decodeRecord(raw, at, one[:0])
		if err != nil {
			return r, err
		}
		switch r.kind, r.dropped = kind, dropped; {
		case kind.whole():
			r.one[0], r.single = readUnit{src: blocks[0], bytes: blocks[0].encLen}, true
		case pl.consume == consumeClone:
			// The id exists but holds something else (a block list, raw
			// metadata): a kind mismatch, not a missing id.
			return r, fmt.Errorf("core: id %q does not hold a datum: %w", pl.id, ErrTypeMismatch)
		default:
			r.units = p.gather().whole(blocks)
		}
		return r, nil
	}
	e, err := p.blockIndex(pl.v, pl.id)
	if err != nil {
		return r, err
	}
	if pl.consume == consumeStats {
		r.dropped = e.dropped
		if !e.hasBlocks {
			return r, fmt.Errorf("core: %q has no stored blocks: %w", pl.id, ErrNotFound)
		}
		r.units = p.gather().whole(e.blocks)
		return r, nil
	}
	if err := r.bound(&pl, e.dims); err != nil {
		return r, err
	}
	if !e.hasBlocks {
		return r, fmt.Errorf("core: id %q has no stored blocks: %w", pl.id, ErrNotFound)
	}
	r.units = p.gather().plan(e, pl.offs, pl.counts, r.esize)
	return r, nil
}
