// Package sim provides the virtual-time performance model that underpins the
// pMEMCPY reproduction: per-rank clocks, shared-resource bandwidth pools, a
// single Config struct holding every tunable constant of the machine model,
// and (charge.go) every formula that turns work into virtual time.
//
// Every data movement in the repository is a real Go copy; sim only accounts
// for how long that movement would have taken on the paper's testbed (a
// 24-core Skylake node with emulated PMEM). Virtual time makes 8-48-rank
// sweeps deterministic and runnable on any host, mirroring the paper's own
// methodology of injecting latency/bandwidth constraints with
// nanosecond-accurate timers.
package sim

import (
	"fmt"
	"sync/atomic"
	"time"
)

// Clock is a per-rank virtual clock. Ranks advance their own clock as they
// charge costs for the work they perform; synchronization points (barriers,
// message receipt) align clocks across ranks.
//
// The zero value is a clock at time zero, ready to use. Clock is safe for
// concurrent use: the owning rank advances it while other ranks may read it
// during collective synchronization.
type Clock struct {
	ns atomic.Int64

	// Rank is the rank that owns the clock, stamped by whoever hands a rank its
	// clock (mpi.Run) before the clock is shared. Choices that must be a
	// function of the caller rather than of arrival order — a transaction's
	// home arena — key on it; the zero-value clock is rank 0's.
	Rank int
}

// Now returns the current virtual time.
func (c *Clock) Now() time.Duration {
	return time.Duration(c.ns.Load())
}

// Advance moves the clock forward by d. Negative durations are ignored so
// cost formulas never move time backwards.
func (c *Clock) Advance(d time.Duration) {
	if d <= 0 {
		return
	}
	c.ns.Add(int64(d))
}

// SyncTo moves the clock forward to t if t is later than the current time.
// It is the primitive used by barriers and message receipt.
func (c *Clock) SyncTo(t time.Duration) {
	for {
		cur := c.ns.Load()
		if int64(t) <= cur {
			return
		}
		if c.ns.CompareAndSwap(cur, int64(t)) {
			return
		}
	}
}

// Pool models a shared bandwidth resource (PMEM read/write ports, the DRAM
// memory system, the shared-memory interconnect). The effective bandwidth
// seen by one rank is the pool's total divided by the number of ranks the
// harness declared concurrently active (SetConcurrency) — a preset, not a live
// count, so costs are deterministic regardless of goroutine scheduling.
type Pool struct {
	name    string
	bps     float64
	perUser float64 // 0 = uncapped
	preset  atomic.Int64
}

// NewPool returns a pool named name with total bandwidth bps bytes/second.
func NewPool(name string, bps float64) *Pool {
	if bps <= 0 {
		panic(fmt.Sprintf("sim: pool %q must have positive bandwidth, got %g", name, bps))
	}
	return &Pool{name: name, bps: bps}
}

// NewPoolCapped returns a pool whose per-user share is additionally capped
// at perUser bytes/second, modelling devices whose aggregate bandwidth needs
// several threads to saturate (a single thread cannot stream to PMEM at the
// device's full rate). perUser <= 0 means uncapped.
func NewPoolCapped(name string, bps, perUser float64) *Pool {
	p := NewPool(name, bps)
	if perUser > 0 {
		p.perUser = perUser
	}
	return p
}

// SetConcurrency presets the sharing divisor to n users; below one the pool
// is undivided.
func (p *Pool) SetConcurrency(n int) { p.preset.Store(int64(n)) }

// Cost returns the virtual time one single-stream user needs to move n bytes
// through the pool.
func (p *Pool) Cost(n int64) time.Duration {
	return BytesAt(n, p.GroupShare(1))
}

// GroupShare returns the bandwidth available to one user driving k concurrent
// streams into the pool. The user's slice of the pool total is unchanged (the
// device is still divided among the same number of users), but the per-stream
// cap scales with k: a single thread cannot saturate PMEM while several
// threads sized to the DIMM count can ("Persistent Memory I/O Primitives",
// van Renen et al.).
func (p *Pool) GroupShare(k int) float64 {
	s := p.bps / float64(max(p.preset.Load(), 1))
	if p.perUser > 0 {
		if c := p.perUser * float64(max(k, 1)); c < s {
			return c
		}
	}
	return s
}

// BytesAt converts a byte count moved at bps bytes/second into a duration.
func BytesAt(n int64, bps float64) time.Duration {
	if n <= 0 || bps <= 0 {
		return 0
	}
	return time.Duration(float64(n) / bps * float64(time.Second))
}
