package pmem

import (
	"fmt"

	"pmemcpy/internal/sim"
)

// Mapping is a DAX-style memory mapping of a contiguous device range, the
// analogue of mmap'ing a pool file on an ext4-DAX filesystem. All offsets are
// relative to the mapping base. The MapSync flag mirrors Linux's MAP_SYNC:
// when set, stores through the mapping pay the write-through penalty the
// paper evaluates as PMCPY-B.
type Mapping struct {
	dev     *Device
	base    int64
	length  int64
	mapSync bool
}

// NewMapping maps [base, base+length) of dev. It validates the range eagerly
// so later accesses only need relative checks.
func NewMapping(dev *Device, base, length int64, mapSync bool) (*Mapping, error) {
	if err := dev.check(base, length); err != nil {
		return nil, fmt.Errorf("pmem: mapping: %w", err)
	}
	return &Mapping{dev: dev, base: base, length: length, mapSync: mapSync}, nil
}

// Device returns the underlying device.
func (m *Mapping) Device() *Device { return m.dev }

// Len returns the mapping length in bytes.
func (m *Mapping) Len() int64 { return m.length }

// Base returns the device offset of the mapping.
func (m *Mapping) Base() int64 { return m.base }

// MapSync reports whether the mapping was established with MAP_SYNC.
func (m *Mapping) MapSync() bool { return m.mapSync }

func (m *Mapping) rel(off, n int64) error {
	if off < 0 || n < 0 || off+n > m.length {
		return fmt.Errorf("%w: mapping [%d,%d) of %d", ErrOutOfRange, off, off+n, m.length)
	}
	return nil
}

// Slice returns the live mapped bytes at [off, off+n). No cost is charged;
// pair with ChargeRead/ChargeWrite, and with Capture/Persist for writes.
func (m *Mapping) Slice(off, n int64) ([]byte, error) {
	if err := m.rel(off, n); err != nil {
		return nil, err
	}
	return m.dev.Slice(m.base+off, n)
}

// Capture records crash pre-images for [off, off+n); see Device.CaptureRange.
func (m *Mapping) Capture(off, n int64) error {
	if err := m.rel(off, n); err != nil {
		return err
	}
	return m.dev.CaptureRange(m.base+off, n)
}

// ChargeRead charges clk for an n-byte load through the mapping.
func (m *Mapping) ChargeRead(clk *sim.Clock, n int64) { m.dev.ChargeRead(clk, n, m.mapSync) }

// ChargeWrite charges clk for an n-byte store through the mapping, applying
// the MAP_SYNC penalty if the mapping carries it.
func (m *Mapping) ChargeWrite(clk *sim.Clock, n int64) { m.dev.ChargeWrite(clk, n, m.mapSync) }

// Persist flushes [off, off+n) to the persistence domain, tagged with the
// caller's persist point.
func (m *Mapping) Persist(clk *sim.Clock, off, n int64, pt PointID) error {
	if err := m.rel(off, n); err != nil {
		return err
	}
	return m.dev.Persist(clk, m.base+off, n, pt)
}
