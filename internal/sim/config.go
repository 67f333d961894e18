package sim

import (
	"fmt"
	"sync"
	"time"
)

// Config holds every tunable constant of the performance model. The defaults
// reproduce the paper's testbed: a Chameleon Cloud Compute Skylake node
// (2x Xeon Gold 6126, 24 physical cores, 192 GB RAM) with PMEM emulated on
// DRAM using the latency/bandwidth assumptions of van Renen et al. that the
// paper adopts: 300 ns read latency, 125 ns write latency, 30 GB/s read
// bandwidth, 8 GB/s write bandwidth.
type Config struct {
	// Cores is the number of physical cores. CPU-bound costs are multiplied
	// by ceil(n/Cores) once n ranks oversubscribe the cores, which produces
	// the paper's scaling plateau at 24 processes.
	Cores int

	// Per-core CPU processing rates, bytes/second.
	SerializeBPS   float64 // encoding application data into an output buffer
	DeserializeBPS float64 // decoding storage bytes back into application data
	PackBPS        float64 // pack/unpack & rearrangement copies (two-phase I/O)
	TouchBPS       float64 // data generation / verification passes

	// DRAMBandwidth is the machine-wide DRAM bandwidth pool shared by all
	// memcpy-like traffic (staging copies, exchanges, pack buffers).
	DRAMBandwidth float64

	// Shared-memory interconnect (single-node MPI).
	NetLatency   time.Duration // per-message latency
	NetBandwidth float64       // total transport bandwidth pool

	// Emulated PMEM device. The aggregate bandwidths are the paper's
	// assumed device limits; the per-rank caps model the well-documented
	// fact that a single thread cannot saturate PMEM (non-temporal store
	// and load throughput per core is far below the device aggregate),
	// which is what makes the paper's curves improve from 8 to 24 ranks
	// before flattening at the device limit.
	PMEMReadLatency    time.Duration
	PMEMWriteLatency   time.Duration
	PMEMReadBandwidth  float64
	PMEMWriteBandwidth float64
	PMEMPerRankReadBW  float64 // 0 = uncapped
	PMEMPerRankWriteBW float64 // 0 = uncapped

	// MapSyncLine is the extra write-through penalty charged per dirty
	// 64-byte cacheline when a mapping was established with MAP_SYNC. The
	// paper observes this penalty erases the benefit of serializing directly
	// into PMEM and can make performance worse than POSIX read()/write().
	MapSyncLine time.Duration

	// Syscall is the kernel-crossing cost charged by the POSIX filesystem
	// layer per read/write/open/fsync call.
	Syscall time.Duration

	// BarrierCost is the synchronization overhead of one barrier/collective
	// rendezvous after clock alignment.
	BarrierCost time.Duration
}

// Sizes used throughout the model.
const (
	// CachelineSize is the persistence granularity of the emulated device.
	CachelineSize = 64
	// PageSize is the mapping granularity of the DAX filesystem.
	PageSize = 4096
)

const (
	// KB, MB and GB are decimal byte units used by the cost model and the
	// experiment harness (the paper's device numbers are decimal GB/s).
	KB = 1000.0
	MB = 1000 * KB
	GB = 1000 * MB
)

// DefaultConfig returns the calibrated model of the paper's testbed.
func DefaultConfig() Config {
	return Config{
		Cores:              24,
		SerializeBPS:       2.0 * GB,
		DeserializeBPS:     1.2 * GB,
		PackBPS:            1.0 * GB,
		TouchBPS:           4.0 * GB,
		DRAMBandwidth:      50 * GB,
		NetLatency:         1 * time.Microsecond,
		NetBandwidth:       25 * GB,
		PMEMReadLatency:    300 * time.Nanosecond,
		PMEMWriteLatency:   125 * time.Nanosecond,
		PMEMReadBandwidth:  30 * GB,
		PMEMWriteBandwidth: 8 * GB,
		PMEMPerRankReadBW:  1.0 * GB,
		PMEMPerRankWriteBW: 0.45 * GB,
		MapSyncLine:        55 * time.Nanosecond,
		Syscall:            1200 * time.Nanosecond,
		BarrierCost:        5 * time.Microsecond,
	}
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	switch {
	case c.Cores <= 0:
		return fmt.Errorf("sim: Cores must be positive, got %d", c.Cores)
	case c.DRAMBandwidth <= 0:
		return fmt.Errorf("sim: DRAMBandwidth must be positive, got %g", c.DRAMBandwidth)
	case c.NetBandwidth <= 0:
		return fmt.Errorf("sim: NetBandwidth must be positive, got %g", c.NetBandwidth)
	case c.PMEMReadBandwidth <= 0 || c.PMEMWriteBandwidth <= 0:
		return fmt.Errorf("sim: PMEM bandwidths must be positive, got read=%g write=%g",
			c.PMEMReadBandwidth, c.PMEMWriteBandwidth)
	}
	return nil
}

// Scale returns a configuration that models a machine k times faster in all
// per-byte terms. Running a workload of size D/k under Scale(k) yields the
// same virtual time as running size D under the original configuration:
// bandwidth terms scale exactly, and per-line (cacheline) costs are
// multiplied by k to compensate for the k-times-fewer lines touched.
// Per-operation latencies (device and network latencies, syscalls, barriers)
// are unchanged: their contribution depends on call counts, not bytes, so
// scaling leaves them alone. This is how the harness emulates the paper's
// 40 GB runs within a small physical memory budget.
func (c Config) Scale(k float64) Config {
	if k <= 0 {
		panic(fmt.Sprintf("sim: scale factor must be positive, got %g", k))
	}
	s := c
	s.SerializeBPS /= k
	s.DeserializeBPS /= k
	s.PackBPS /= k
	s.TouchBPS /= k
	s.DRAMBandwidth /= k
	s.NetBandwidth /= k
	s.PMEMReadBandwidth /= k
	s.PMEMWriteBandwidth /= k
	s.PMEMPerRankReadBW /= k
	s.PMEMPerRankWriteBW /= k
	s.MapSyncLine = time.Duration(float64(s.MapSyncLine) * k)
	return s
}

// Oversub returns the CPU oversubscription factor for n concurrently
// computing ranks: 1 while n <= Cores, then n/Cores. A pointer receiver,
// because every ChargeMove asks it and a value receiver copies the whole
// Config each time.
func (c *Config) Oversub(n int) float64 {
	if n <= c.Cores {
		return 1
	}
	return float64(n) / float64(c.Cores)
}

// Machine bundles the shared bandwidth pools built from a Config. One Machine
// represents one compute node; every library in an experiment charges its
// data movements against the same pools so contention is modelled uniformly.
type Machine struct {
	cfg Config

	// DRAM is the machine-wide memory-system pool.
	DRAM *Pool
	// Net is the shared-memory interconnect pool.
	Net *Pool
	// PMEMRead and PMEMWrite are the default device's read and write ports.
	PMEMRead  *Pool
	PMEMWrite *Pool

	// extra holds port pools minted by NewPMEMPorts for additional PMEM
	// devices (multi-pool nodes). SetConcurrency covers them like the
	// built-in four, and ports minted after a SetConcurrency call inherit
	// the last divisor.
	extraMu sync.Mutex
	extra   []*Pool
	lastN   int
}

// NewMachine builds the pools for cfg. It panics if cfg is invalid, matching
// the convention that a Machine is constructed once during setup.
func NewMachine(cfg Config) *Machine {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &Machine{
		cfg:       cfg,
		DRAM:      NewPool("dram", cfg.DRAMBandwidth),
		Net:       NewPool("net", cfg.NetBandwidth),
		PMEMRead:  NewPoolCapped("pmem-read", cfg.PMEMReadBandwidth, cfg.PMEMPerRankReadBW),
		PMEMWrite: NewPoolCapped("pmem-write", cfg.PMEMWriteBandwidth, cfg.PMEMPerRankWriteBW),
	}
}

// Config returns the configuration the machine was built from.
func (m *Machine) Config() Config { return m.cfg }

// SetConcurrency presets the sharing divisor of every pool to n ranks. The
// experiment harness calls this at the start of a bulk-synchronous phase so
// costs are deterministic regardless of goroutine scheduling.
func (m *Machine) SetConcurrency(n int) {
	m.DRAM.SetConcurrency(n)
	m.Net.SetConcurrency(n)
	m.PMEMRead.SetConcurrency(n)
	m.PMEMWrite.SetConcurrency(n)
	m.extraMu.Lock()
	m.lastN = n
	for _, p := range m.extra {
		p.SetConcurrency(n)
	}
	m.extraMu.Unlock()
}

// NewPMEMPorts mints a dedicated read/write port pair for one additional PMEM
// device on this machine, with the config's device bandwidths and per-rank
// caps. Each pool of a multi-pool namespace charges its traffic against its
// own pair, which is what makes aggregate bandwidth scale with the pool count
// (one DIMM set per pool); the pair is registered so SetConcurrency keeps
// covering it.
func (m *Machine) NewPMEMPorts(name string) (read, write *Pool) {
	read = NewPoolCapped(name+"-read", m.cfg.PMEMReadBandwidth, m.cfg.PMEMPerRankReadBW)
	write = NewPoolCapped(name+"-write", m.cfg.PMEMWriteBandwidth, m.cfg.PMEMPerRankWriteBW)
	m.extraMu.Lock()
	if m.lastN > 0 {
		read.SetConcurrency(m.lastN)
		write.SetConcurrency(m.lastN)
	}
	m.extra = append(m.extra, read, write)
	m.extraMu.Unlock()
	return read, write
}
