package pmdk

// A namespace is a pool set: one or more member pools created and reopened
// under one crash-consistent commit. The single pool is the 1-member case.
//
// The creation protocol is prepare/publish:
//
//  1. prepare — every member is formatted (Create), given its hashtable
//     (FormatPool), and, except member 0, stamped with a member descriptor —
//     the set id, its index and the member count, CRC-guarded and persisted
//     (pmdk.set.member);
//  2. publish — after every member is durable, member 0's descriptor is
//     written and persisted (pmdk.set.publish). This single ordered record is
//     the namespace's commit point.
//
// The descriptor slot is the last cacheline of the pool header, outside the
// header checksum: a reader finds it without trusting any other byte, and the
// device tears at cacheline granularity, so a slot is written atomically.
// Member 0's slot therefore has exactly three readings:
//
//   - all-zero: the namespace was never published (ErrSetUnpublished) — no
//     store ever succeeded in it, and the creator re-formats from scratch;
//   - a valid descriptor: published — every member's descriptor was persisted
//     before it, so a member that now fails to validate is corruption;
//   - anything else: ErrCorrupt.
//
// A damaged or old-format namespace is thus refused, never re-formatted.

import (
	"encoding/binary"
	"errors"
	"fmt"

	"pmemcpy/internal/checksum"
	"pmemcpy/internal/pmem"
	"pmemcpy/internal/sim"
)

// ErrSetUnpublished reports that a namespace's publish record is absent:
// the member files are new, or creation crashed before its commit point. The
// namespace never existed; the caller creates it.
var ErrSetUnpublished = errors.New("pmdk: pool set was never published")

// Namespace commit persist points.
var (
	ptSetMember  = pmem.RegisterPoint("pmdk.set.member")
	ptSetPublish = pmem.RegisterPoint("pmdk.set.publish")
)

const (
	setDescMagic = "PMSETDSC"
	setDescSize  = 32
	// Member descriptor layout, relative to hdrSetDesc:
	descMagic = 0  // u64: setDescMagic
	descSetID = 8  // u64: creation-time set identifier
	descIndex = 16 // u32: this pool's index
	descCount = 20 // u32: member count
	descCksum = 24 // u64: CRC32C over [0, descCksum), widened
)

// SetDesc is the decoded member descriptor of one pool.
type SetDesc struct {
	SetID uint64
	Index int
	Count int
}

// writeSetDesc encodes and persists the pool's member descriptor.
func (p *Pool) writeSetDesc(clk *sim.Clock, d SetDesc, pt pmem.PointID) error {
	var raw [setDescSize]byte
	copy(raw[descMagic:], setDescMagic)
	binary.LittleEndian.PutUint64(raw[descSetID:], d.SetID)
	binary.LittleEndian.PutUint32(raw[descIndex:], uint32(d.Index))
	binary.LittleEndian.PutUint32(raw[descCount:], uint32(d.Count))
	binary.LittleEndian.PutUint64(raw[descCksum:], uint64(checksum.Sum(raw[:descCksum])))
	return p.StoreBytesAt(clk, hdrSetDesc, raw[:], true, pt)
}

// ReadSetDesc decodes the descriptor slot of the member living in m without
// opening it (no recovery runs). An all-zero slot is ErrSetUnpublished —
// unless the header in front of it is a valid one of another format version,
// which is ErrBadPool: that pool holds data this code cannot read and must not
// re-format. Any other slot that is not a valid descriptor is ErrCorrupt.
func ReadSetDesc(clk *sim.Clock, m *pmem.Mapping) (SetDesc, error) {
	hdr, err := m.Slice(0, headerSize)
	if err != nil {
		return SetDesc{}, err
	}
	m.ChargeRead(clk, setDescSize)
	raw := hdr[hdrSetDesc : hdrSetDesc+setDescSize]
	if [setDescSize]byte(raw) == [setDescSize]byte{} {
		if v := binary.LittleEndian.Uint32(hdr[hdrVersion:]); v != poolVersion &&
			string(hdr[hdrMagic:hdrMagic+8]) == poolMagic &&
			binary.LittleEndian.Uint64(hdr[hdrChecksum:]) == headerChecksum(hdr) {
			return SetDesc{}, errVersion(v)
		}
		return SetDesc{}, ErrSetUnpublished
	}
	if string(raw[descMagic:descMagic+8]) != setDescMagic ||
		binary.LittleEndian.Uint64(raw[descCksum:]) != uint64(checksum.Sum(raw[:descCksum])) {
		return SetDesc{}, fmt.Errorf("%w: set descriptor fails its magic or checksum", ErrCorrupt)
	}
	return SetDesc{
		SetID: binary.LittleEndian.Uint64(raw[descSetID:]),
		Index: int(binary.LittleEndian.Uint32(raw[descIndex:])),
		Count: int(binary.LittleEndian.Uint32(raw[descCount:])),
	}, nil
}

// CreateSet formats len(maps) pools, each with its hashtable, as one namespace
// under the prepare/publish protocol and returns the published members. setID
// is a caller-chosen identifier (core derives it from the namespace path) that
// binds the members together; OpenSet rejects mixed sets. Any previous content
// of the mappings is destroyed.
func CreateSet(clk *sim.Clock, setID uint64, maps []*pmem.Mapping, opts *Options) ([]*Pool, error) {
	if len(maps) == 0 {
		return nil, fmt.Errorf("pmdk: CreateSet needs at least one mapping")
	}
	pools := make([]*Pool, len(maps))
	for i, m := range maps {
		p, err := Create(clk, m, opts)
		if err == nil {
			_, err = FormatPool(clk, p, DefaultBuckets)
		}
		if err == nil && i > 0 {
			err = p.writeSetDesc(clk, SetDesc{setID, i, len(maps)}, ptSetMember)
		}
		if err != nil {
			return nil, fmt.Errorf("pmdk: set member %d: %w", i, err)
		}
		pools[i] = p
	}
	// Publish: member 0's slot stayed all-zero through the loop above (Create
	// rewrites it with zeros), and every persist above is complete, so this
	// one is ordered after all of them.
	if err := pools[0].writeSetDesc(clk, SetDesc{setID, 0, len(maps)}, ptSetPublish); err != nil {
		return nil, fmt.Errorf("pmdk: set publish: %w", err)
	}
	return pools, nil
}

// OpenSet validates and opens an existing namespace. An absent publish record
// yields ErrSetUnpublished (the caller creates the set). Under a valid one
// every member must carry its matching descriptor and open cleanly; anything
// else is corruption.
func OpenSet(clk *sim.Clock, maps []*pmem.Mapping) ([]*Pool, error) {
	if len(maps) == 0 {
		return nil, fmt.Errorf("pmdk: OpenSet needs at least one mapping")
	}
	d0, err := ReadSetDesc(clk, maps[0])
	if err != nil {
		return nil, err
	}
	pools := make([]*Pool, len(maps))
	for i, m := range maps {
		d := d0
		if i > 0 {
			if d, err = ReadSetDesc(clk, m); err != nil {
				return nil, fmt.Errorf("%w: set member %d under a published set: %v", ErrCorrupt, i, err)
			}
		}
		if want := (SetDesc{d0.SetID, i, len(maps)}); d != want {
			return nil, fmt.Errorf("%w: set member %d descriptor %+v, want %+v", ErrCorrupt, i, d, want)
		}
		if pools[i], err = Open(clk, m); err != nil {
			return nil, fmt.Errorf("pmdk: set member %d: %w", i, err)
		}
	}
	return pools, nil
}
