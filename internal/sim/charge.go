package sim

import "time"

// The cost model: every charge the repository makes is one of the Machine
// methods below, named for what it pays for. Each advances the caller's clock
// by a formula over the Config constants and the pools' current shares, and
// nothing outside this package advances a clock (commitvet's charge rule), so
// "what does an operation cost, and why" is answered by this file. There is no
// flat per-operation charge: a metadata operation costs the reads and persists
// it makes. DESIGN §5 tabulates the methods, their formulas and their callers,
// and what each Config constant charges.

// Dir is the direction of a DAX move: it selects the device latency the move
// pays once.
type Dir uint8

const (
	Store Dir = iota // DRAM into mapped PMEM
	Load             // mapped PMEM into DRAM
)

// Stripe is the bytes (> 0) one move carried through one device port.
type Stripe struct {
	Port  *Pool
	Bytes int64
}

// ChargeMove charges one DAX move: `workers` concurrent streams of one rank
// moved the striped bytes between DRAM and mapped PMEM in a single
// (de)serialization pass — the heart of the paper's claim, instead of a DRAM
// pass followed by a device pass. It pays the direction's device latency once
// (even when nothing moved), then the SLOWEST stripe, then the extra codec
// passes, then the MAP_SYNC penalty.
//
// The CPU side runs at perCoreBPS per worker (0 = not CPU-limited: no codec on
// the path), discounted by the oversubscription of ranks*workers threads; the
// device side is the port's GroupShare, so several streams lift the
// single-thread PMEM cap until the rank's slice of the device is saturated.
// Each device of a multi-pool node has its own ports (one DIMM set per pool),
// so the workers split across the stripes in proportion to their bytes (at
// least one each; a lone stripe gets them all) and time advances by the
// slowest stripe, not the sum — the aggregate-bandwidth win of a sharded
// namespace. Codec passes beyond the first (BP4's min/max characterization)
// only re-read the data in DRAM, so they are CPU/DRAM-bound over the total;
// with mapSync every dirty cacheline pays MapSyncLine, the lines split across
// the workers — the write-through penalty the paper evaluates as PMCPY-B.
//
// One stripe, one worker, no CPU limit and one pass is the device's own
// ChargeRead/ChargeWrite: latency + bytes at the port share + MAP_SYNC per line.
func (m *Machine) ChargeMove(clk *Clock, dir Dir, stripes []Stripe, perCoreBPS float64, ranks, workers int, passes float64, mapSync bool) {
	lat := m.cfg.PMEMWriteLatency
	if dir == Load {
		lat = m.cfg.PMEMReadLatency
	}
	over := m.cfg.Oversub(ranks * workers)
	var total int64
	for _, s := range stripes {
		total += s.Bytes
	}
	clk.Advance(lat)
	var slowest time.Duration
	for _, s := range stripes {
		w := workers
		if len(stripes) > 1 {
			w = max(1, int(float64(workers)*float64(s.Bytes)/float64(total)))
		}
		slowest = max(slowest, moveCost(s.Bytes, perCoreBPS, over, w, s.Port))
	}
	clk.Advance(slowest)
	if passes > 1 {
		clk.Advance(moveCost(int64(float64(total)*(passes-1)), perCoreBPS, over, workers, m.DRAM))
	}
	if mapSync {
		lines := (total + CachelineSize - 1) / CachelineSize
		clk.Advance(time.Duration((lines+int64(workers)-1)/int64(workers)) * m.cfg.MapSyncLine)
	}
}

// moveCost is the time `workers` concurrent streams of one rank need to move n
// bytes through pool: CPU throughput scales with the worker count (each worker
// a core running the copy loop at perCoreBPS, discounted by oversub >= 1; 0 =
// not CPU-limited), the pool contributes its GroupShare, and the slower of
// the two wins.
func moveCost(n int64, perCoreBPS, oversub float64, workers int, pool *Pool) time.Duration {
	eff := pool.GroupShare(workers)
	if cpu := float64(workers) * perCoreBPS / oversub; perCoreBPS > 0 && cpu < eff {
		eff = cpu
	}
	return BytesAt(n, eff)
}

// ChargePasses charges streaming n bytes through the CPU the given number of
// times — an encode, a pack, a verification sweep — at perCoreBPS per core,
// with ranks ranks computing at once, bounded by the DRAM pool. It is the one
// DRAM-pass charge every library above the device uses.
func (m *Machine) ChargePasses(clk *Clock, n int64, passes, perCoreBPS float64, ranks int) {
	clk.Advance(moveCost(int64(float64(n)*passes), perCoreBPS, m.cfg.Oversub(ranks), 1, m.DRAM))
}

// ChargeReadLatency charges a read that streams no bytes — a zero-copy view
// opened in place, one block's characteristics header: one device read latency.
func (m *Machine) ChargeReadLatency(clk *Clock) { clk.Advance(m.cfg.PMEMReadLatency) }

// ChargePersist charges one CLWB-and-SFENCE of a range: one device write
// latency, whatever the range (the bytes were paid for when they moved).
func (m *Machine) ChargePersist(clk *Clock) { clk.Advance(m.cfg.PMEMWriteLatency) }

// ChargeRetry charges the exponential back-off before re-issuing a flush that
// hit a transient media error: 2x, 4x, 8x the write latency for attempt 1, 2, 3.
func (m *Machine) ChargeRetry(clk *Clock, attempt int) {
	clk.Advance(m.cfg.PMEMWriteLatency * time.Duration(int64(1)<<attempt))
}

// ChargeSyscall charges one kernel crossing: Syscall.
func (m *Machine) ChargeSyscall(clk *Clock) { clk.Advance(m.cfg.Syscall) }

// ChargeTransfer charges one rank moving n bytes through the shared-memory
// interconnect: NetLatency plus n bytes at the rank's share of the Net pool.
func (m *Machine) ChargeTransfer(clk *Clock, n int64) { clk.Advance(m.cfg.NetLatency + m.Net.Cost(n)) }

// ChargeNetLatency charges a collective that moves one word or a reference:
// NetLatency alone.
func (m *Machine) ChargeNetLatency(clk *Clock) { clk.Advance(m.cfg.NetLatency) }

// ChargeLogTree charges a reduction over a binary tree of ranks ranks:
// NetLatency per level, ceil(log2 ranks) levels, at least one.
func (m *Machine) ChargeLogTree(clk *Clock, ranks int) {
	levels := 0
	for v := 1; v < ranks; v <<= 1 {
		levels++
	}
	clk.Advance(m.cfg.NetLatency * time.Duration(max(levels, 1)))
}

// ChargeBarrier charges the rendezvous overhead of one barrier, after the
// clocks aligned: BarrierCost.
func (m *Machine) ChargeBarrier(clk *Clock) { clk.Advance(m.cfg.BarrierCost) }

// ChargeScrubPace holds a scrub pass that started at start and has verified
// bytes bytes since to at most rate bytes per virtual second: the clock moves
// forward to start + bytes/rate if it is not already there.
func (m *Machine) ChargeScrubPace(clk *Clock, start time.Duration, bytes, rate int64) {
	clk.SyncTo(start + BytesAt(bytes, float64(rate)))
}

// ChargeLink charges moving n bytes over a link outside the node — the PFS
// tier behind the burst buffer — that has its own per-operation latency and
// its own bandwidth pool: lat, then n bytes at the caller's share of p.
func (p *Pool) ChargeLink(clk *Clock, lat time.Duration, n int64) {
	clk.Advance(lat)
	clk.Advance(p.Cost(n))
}
