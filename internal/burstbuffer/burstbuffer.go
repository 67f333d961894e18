// Package burstbuffer implements the storage tier behind the node-local
// PMEM in the paper's machine architecture (Figure 1): a shared burst
// buffer / parallel filesystem that node-local data is asynchronously
// flushed to after serialization — "a burst buffer, such as DataWarp, will
// then be triggered to asynchronously flush the buffered data to mass
// storage. The data will be stored in the same format as it was produced."
//
// The PFS model is deliberately simple: a shared object namespace with high
// per-operation latency and a node-uplink bandwidth pool far below PMEM's.
// The Flusher drains a pMEMCPY store to it variable-by-variable in the
// produced (per-block) format, optionally evicting drained data from PMEM to
// free buffer capacity, and Restore stages data back in — the prefetch path
// of a multi-tier buffering system like Hermes.
package burstbuffer

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"pmemcpy/internal/core"
	"pmemcpy/internal/serial"
	"pmemcpy/internal/sim"
)

// Default PFS characteristics: a capacity-tier burst buffer reachable over
// the fabric — milliseconds of latency, a couple of GB/s per node uplink.
const (
	DefaultBandwidth = 2.0 * sim.GB
	DefaultLatency   = 500 * time.Microsecond
)

// PFS is the shared mass-storage tier.
type PFS struct {
	mu      sync.Mutex
	objects map[string][]byte

	pool    *sim.Pool
	latency time.Duration
}

// NewPFS builds a PFS with the given node-uplink bandwidth (bytes/second)
// and per-operation latency. Zero values select the defaults.
func NewPFS(bandwidth float64, latency time.Duration) *PFS {
	if bandwidth <= 0 {
		bandwidth = DefaultBandwidth
	}
	if latency <= 0 {
		latency = DefaultLatency
	}
	return &PFS{
		objects: make(map[string][]byte),
		pool:    sim.NewPool("pfs", bandwidth),
		latency: latency,
	}
}

// Pool exposes the PFS bandwidth pool (the harness presets its concurrency
// alongside the node pools).
func (p *PFS) Pool() *sim.Pool { return p.pool }

// Put stores an object durably on the PFS, charging clk for the transfer.
func (p *PFS) Put(clk *sim.Clock, name string, data []byte) error {
	cp := make([]byte, len(data))
	copy(cp, data)
	p.pool.ChargeLink(clk, p.latency, int64(len(data)))
	p.mu.Lock()
	p.objects[name] = cp
	p.mu.Unlock()
	return nil
}

// Get reads an object back, charging clk for the transfer.
func (p *PFS) Get(clk *sim.Clock, name string) ([]byte, error) {
	p.mu.Lock()
	data, ok := p.objects[name]
	p.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("burstbuffer: object %q not found", name)
	}
	p.pool.ChargeLink(clk, p.latency, int64(len(data)))
	out := make([]byte, len(data))
	copy(out, data)
	return out, nil
}

// List returns the names of objects under prefix, sorted.
func (p *PFS) List(prefix string) []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	var out []string
	for name := range p.objects {
		if strings.HasPrefix(name, prefix) {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// Size returns an object's size, or -1 if absent.
func (p *PFS) Size(name string) int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	if data, ok := p.objects[name]; ok {
		return int64(len(data))
	}
	return -1
}

// Flusher drains pMEMCPY stores to a PFS. It runs on the caller's rank (in a
// real deployment this is a background agent overlapping the application;
// the drain's virtual time is therefore reported separately from application
// phase times rather than added to them).
type Flusher struct {
	pfs *PFS
	// Evict removes each variable from PMEM once it is safely on the PFS,
	// freeing buffer capacity for the next burst.
	Evict bool
}

// NewFlusher builds a flusher targeting pfs.
func NewFlusher(pfs *PFS) *Flusher {
	return &Flusher{pfs: pfs}
}

// objectName maps a store id to its PFS object name.
func objectName(prefix, id string) string { return prefix + id }

// DrainStore copies every id of the store to the PFS under prefix and
// returns the number of payload bytes moved. Data travels in the same
// format it was produced: each variable's stored blocks are read from PMEM
// and written as one self-describing PFS object (dims + per-block records),
// with no cross-variable restructuring.
func (f *Flusher) DrainStore(p *core.PMEM, prefix string) (int64, error) {
	keys, err := p.Keys()
	if err != nil {
		return 0, err
	}
	sort.Strings(keys)
	var moved int64
	for _, id := range keys {
		if strings.HasSuffix(id, core.DimsSuffix) {
			continue // carried inside the owning variable's object
		}
		n, err := f.drainOne(p, prefix, id)
		if err != nil {
			return moved, fmt.Errorf("draining %q: %w", id, err)
		}
		moved += n
		if f.Evict {
			if _, err := p.Delete(id); err != nil {
				return moved, fmt.Errorf("evicting %q: %w", id, err)
			}
			if _, err := p.Delete(id + core.DimsSuffix); err != nil {
				return moved, fmt.Errorf("evicting %q dims: %w", id, err)
			}
		}
	}
	return moved, nil
}

// drainOne serializes one variable (or scalar value) into a PFS object.
func (f *Flusher) drainOne(p *core.PMEM, prefix, id string) (int64, error) {
	clk := p.Comm().Clock()
	if dtype, dims, err := p.LoadDims(id); err == nil {
		// Array variable: read the full extent from PMEM and ship it with
		// its dims.
		elems := uint64(1)
		for _, d := range dims {
			elems *= d
		}
		buf := make([]byte, elems*uint64(dtype.Size()))
		offs := make([]uint64, len(dims))
		if err := p.LoadBlock(id, offs, dims, buf); err != nil {
			return 0, err
		}
		obj := encodeArrayObject(dtype, dims, buf)
		if err := f.pfs.Put(clk, objectName(prefix, id), obj); err != nil {
			return 0, err
		}
		return int64(len(buf)), nil
	}
	// Scalar/string/struct value.
	d, err := p.LoadDatum(id)
	if err != nil {
		return 0, err
	}
	obj := encodeValueObject(d)
	if err := f.pfs.Put(clk, objectName(prefix, id), obj); err != nil {
		return 0, err
	}
	return int64(len(d.Payload)), nil
}

// Restore stages every PFS object under prefix back into the store (the
// prefetch path). It returns the number of payload bytes moved.
func Restore(p *core.PMEM, pfs *PFS, prefix string) (int64, error) {
	clk := p.Comm().Clock()
	var moved int64
	for _, name := range pfs.List(prefix) {
		id := strings.TrimPrefix(name, prefix)
		obj, err := pfs.Get(clk, name)
		if err != nil {
			return moved, err
		}
		kind, dtype, dims, payload, err := decodeObject(obj)
		if err != nil {
			return moved, fmt.Errorf("restoring %q: %w", id, err)
		}
		switch kind {
		case objArray:
			if err := p.Alloc(id, dtype, dims); err != nil {
				return moved, err
			}
			offs := make([]uint64, len(dims))
			if err := p.StoreBlock(id, offs, dims, payload); err != nil {
				return moved, err
			}
		case objValue:
			d := &serial.Datum{Type: dtype, Payload: payload}
			if err := p.StoreDatum(id, d); err != nil {
				return moved, err
			}
		}
		moved += int64(len(payload))
	}
	return moved, nil
}

// --- PFS object format: same idea as the store's records, self-describing.

const (
	objArray = 0xA1
	objValue = 0xA2
)

func encodeArrayObject(dtype serial.DType, dims []uint64, payload []byte) []byte {
	out := make([]byte, 0, 2+len(dims)*8+len(payload))
	out = append(out, objArray, byte(dtype), byte(len(dims)))
	var tmp [8]byte
	for _, d := range dims {
		putU64(tmp[:], d)
		out = append(out, tmp[:]...)
	}
	return append(out, payload...)
}

func encodeValueObject(d *serial.Datum) []byte {
	out := make([]byte, 0, 2+len(d.Payload))
	out = append(out, objValue, byte(d.Type), 0)
	return append(out, d.Payload...)
}

func decodeObject(obj []byte) (kind byte, dtype serial.DType, dims []uint64, payload []byte, err error) {
	if len(obj) < 3 {
		return 0, 0, nil, nil, fmt.Errorf("object truncated")
	}
	kind, dtype = obj[0], serial.DType(obj[1])
	nd := int(obj[2])
	pos := 3
	if kind == objArray {
		if len(obj) < pos+8*nd {
			return 0, 0, nil, nil, fmt.Errorf("object dims truncated")
		}
		dims = make([]uint64, nd)
		for i := range dims {
			dims[i] = getU64(obj[pos:])
			pos += 8
		}
	} else if kind != objValue {
		return 0, 0, nil, nil, fmt.Errorf("unknown object kind %#x", kind)
	}
	return kind, dtype, dims, obj[pos:], nil
}

func putU64(b []byte, v uint64) {
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
}

func getU64(b []byte) uint64 {
	var v uint64
	for i := 0; i < 8; i++ {
		v |= uint64(b[i]) << (8 * i)
	}
	return v
}
