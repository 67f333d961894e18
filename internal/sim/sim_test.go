package sim

import (
	"math"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestClockZeroValue(t *testing.T) {
	var c Clock
	if got := c.Now(); got != 0 {
		t.Fatalf("zero clock Now() = %v, want 0", got)
	}
}

func TestClockAdvance(t *testing.T) {
	var c Clock
	c.Advance(5 * time.Millisecond)
	c.Advance(3 * time.Millisecond)
	if got, want := c.Now(), 8*time.Millisecond; got != want {
		t.Fatalf("Now() = %v, want %v", got, want)
	}
}

func TestClockAdvanceIgnoresNegative(t *testing.T) {
	var c Clock
	c.Advance(time.Second)
	c.Advance(-time.Hour)
	c.Advance(0)
	if got, want := c.Now(), time.Second; got != want {
		t.Fatalf("Now() = %v, want %v", got, want)
	}
}

func TestClockSyncTo(t *testing.T) {
	var c Clock
	c.Advance(10 * time.Second)
	c.SyncTo(4 * time.Second) // earlier: no-op
	if got := c.Now(); got != 10*time.Second {
		t.Fatalf("SyncTo(earlier) moved clock to %v", got)
	}
	c.SyncTo(15 * time.Second)
	if got := c.Now(); got != 15*time.Second {
		t.Fatalf("SyncTo(later) = %v, want 15s", got)
	}
}

func TestClockConcurrentAdvance(t *testing.T) {
	var c Clock
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < per; j++ {
				c.Advance(time.Nanosecond)
			}
		}()
	}
	wg.Wait()
	if got, want := c.Now(), time.Duration(workers*per); got != want {
		t.Fatalf("concurrent Advance total = %v, want %v", got, want)
	}
}

func TestPoolShare(t *testing.T) {
	p := NewPool("test", 8*GB)
	if got := p.GroupShare(1); got != 8*GB {
		t.Fatalf("undivided share = %g, want %g", got, 8*GB)
	}
	p.SetConcurrency(2)
	if got := p.GroupShare(1); got != 4*GB {
		t.Fatalf("2-user share = %g, want %g", got, 4*GB)
	}
	p.SetConcurrency(1)
	if got := p.GroupShare(1); got != 8*GB {
		t.Fatalf("1-user share = %g, want %g", got, 8*GB)
	}
}

func TestPoolPresetConcurrencyWins(t *testing.T) {
	p := NewPool("test", 24*GB)
	p.SetConcurrency(24)
	if got := p.GroupShare(1); got != GB {
		t.Fatalf("preset share = %g, want %g", got, GB)
	}
	p.SetConcurrency(0) // back to the undivided pool
	if got := p.GroupShare(1); got != 24*GB {
		t.Fatalf("undivided share = %g, want %g", got, 24*GB)
	}
}

// TestPoolGroupShareLiftsCap: k streams of one user lift the per-stream cap
// k-fold, up to the user's slice of the pool and no further.
func TestPoolGroupShareLiftsCap(t *testing.T) {
	p := NewPoolCapped("pmem-write", 8*GB, 0.5*GB)
	p.SetConcurrency(4) // 2 GB/s slice
	for k, want := range map[int]float64{0: 0.5 * GB, 1: 0.5 * GB, 2: GB, 4: 2 * GB, 16: 2 * GB} {
		if got := p.GroupShare(k); got != want {
			t.Errorf("GroupShare(%d) = %g, want %g", k, got, want)
		}
	}
}

func TestPoolCost(t *testing.T) {
	p := NewPool("pmem-write", 8*GB)
	p.SetConcurrency(1)
	// 8 GB at 8 GB/s = 1 s.
	if got, want := p.Cost(8_000_000_000), time.Second; got != want {
		t.Fatalf("Cost = %v, want %v", got, want)
	}
	p.SetConcurrency(8)
	if got, want := p.Cost(1_000_000_000), time.Second; got != want {
		t.Fatalf("shared Cost = %v, want %v", got, want)
	}
}

func TestNewPoolPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewPool(0) did not panic")
		}
	}()
	NewPool("bad", 0)
}

func TestBytesAt(t *testing.T) {
	tests := []struct {
		n    int64
		bps  float64
		want time.Duration
	}{
		{0, GB, 0},
		{-5, GB, 0},
		{1000, 0, 0},
		{1_000_000_000, GB, time.Second},
		{500, 1000, 500 * time.Millisecond},
	}
	for _, tt := range tests {
		if got := BytesAt(tt.n, tt.bps); got != tt.want {
			t.Errorf("BytesAt(%d, %g) = %v, want %v", tt.n, tt.bps, got, tt.want)
		}
	}
}

func TestMoveCostMinimumWins(t *testing.T) {
	fast := NewPool("fast", 100*GB)
	slow := NewPool("slow", 2*GB)
	fast.SetConcurrency(1)
	slow.SetConcurrency(1)
	// Per-core 10 GB/s, pool 2 GB/s: the pool limits.
	got := moveCost(2_000_000_000, 10*GB, 1, 1, slow)
	if want := time.Second; got != want {
		t.Fatalf("moveCost = %v, want %v", got, want)
	}
	// Per-core 1 GB/s limits when the pool is fast.
	got = moveCost(1_000_000_000, GB, 1, 1, fast)
	if want := time.Second; got != want {
		t.Fatalf("moveCost = %v, want %v", got, want)
	}
	// Four workers lift the CPU limit fourfold.
	got = moveCost(4_000_000_000, GB, 1, 4, fast)
	if want := time.Second; got != want {
		t.Fatalf("4-worker moveCost = %v, want %v", got, want)
	}
}

func TestMoveCostOversubscription(t *testing.T) {
	pool := NewPool("p", 1000*GB)
	pool.SetConcurrency(1)
	base := moveCost(1_000_000_000, GB, 1, 1, pool)
	doubled := moveCost(1_000_000_000, GB, 2, 1, pool)
	if doubled != 2*base {
		t.Fatalf("oversub 2 cost = %v, want %v", doubled, 2*base)
	}
}

func TestMoveCostNoCPULimit(t *testing.T) {
	pool := NewPool("p", GB)
	pool.SetConcurrency(1)
	if got, want := moveCost(1_000_000_000, 0, 1, 1, pool), time.Second; got != want {
		t.Fatalf("moveCost without CPU limit = %v, want %v", got, want)
	}
}

func TestDefaultConfigMatchesPaperConstants(t *testing.T) {
	c := DefaultConfig()
	if c.PMEMReadLatency != 300*time.Nanosecond {
		t.Errorf("PMEM read latency = %v, want 300ns", c.PMEMReadLatency)
	}
	if c.PMEMWriteLatency != 125*time.Nanosecond {
		t.Errorf("PMEM write latency = %v, want 125ns", c.PMEMWriteLatency)
	}
	if c.PMEMReadBandwidth != 30*GB {
		t.Errorf("PMEM read bandwidth = %g, want 30 GB/s", c.PMEMReadBandwidth)
	}
	if c.PMEMWriteBandwidth != 8*GB {
		t.Errorf("PMEM write bandwidth = %g, want 8 GB/s", c.PMEMWriteBandwidth)
	}
	if c.Cores != 24 {
		t.Errorf("Cores = %d, want 24", c.Cores)
	}
	if err := c.Validate(); err != nil {
		t.Errorf("default config invalid: %v", err)
	}
}

func TestConfigValidate(t *testing.T) {
	bad := DefaultConfig()
	bad.Cores = 0
	if bad.Validate() == nil {
		t.Error("Validate accepted Cores=0")
	}
	bad = DefaultConfig()
	bad.DRAMBandwidth = -1
	if bad.Validate() == nil {
		t.Error("Validate accepted negative DRAM bandwidth")
	}
	bad = DefaultConfig()
	bad.PMEMWriteBandwidth = 0
	if bad.Validate() == nil {
		t.Error("Validate accepted zero PMEM write bandwidth")
	}
	bad = DefaultConfig()
	bad.NetBandwidth = 0
	if bad.Validate() == nil {
		t.Error("Validate accepted zero net bandwidth")
	}
}

func TestConfigOversub(t *testing.T) {
	c := DefaultConfig()
	if got := c.Oversub(8); got != 1 {
		t.Errorf("Oversub(8) = %g, want 1", got)
	}
	if got := c.Oversub(24); got != 1 {
		t.Errorf("Oversub(24) = %g, want 1", got)
	}
	if got := c.Oversub(48); got != 2 {
		t.Errorf("Oversub(48) = %g, want 2", got)
	}
}

// TestConfigScaleInvariance is the core property behind running the paper's
// 40 GB experiments in a small memory budget: moving D/k bytes on a machine
// scaled by k costs the same virtual time as moving D bytes unscaled.
func TestConfigScaleInvariance(t *testing.T) {
	c := DefaultConfig()
	f := func(raw uint32, kExp uint8) bool {
		bytes := int64(raw)%(1<<30) + 1
		k := float64(kExp%6 + 1)
		s := c.Scale(k)

		orig := BytesAt(bytes, c.PMEMWriteBandwidth)
		scaled := BytesAt(int64(float64(bytes)/k), s.PMEMWriteBandwidth)
		// Integer division of bytes introduces at most 1-byte rounding.
		diff := math.Abs(float64(orig - scaled))
		tol := float64(time.Duration(k)) / c.PMEMWriteBandwidth * float64(time.Second)
		return diff <= tol+1000
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestConfigScaleLineCost(t *testing.T) {
	c := DefaultConfig()
	s := c.Scale(4)
	if got, want := s.MapSyncLine, 4*c.MapSyncLine; got != want {
		t.Fatalf("scaled MapSyncLine = %v, want %v", got, want)
	}
	// Per-op latencies unchanged.
	if s.Syscall != c.Syscall || s.BarrierCost != c.BarrierCost {
		t.Fatal("Scale changed per-op latencies")
	}
}

func TestConfigScalePanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Scale(0) did not panic")
		}
	}()
	DefaultConfig().Scale(0)
}

func TestNewMachinePoolsMatchConfig(t *testing.T) {
	cfg := DefaultConfig()
	m := NewMachine(cfg)
	if m.PMEMWrite.bps != cfg.PMEMWriteBandwidth {
		t.Errorf("PMEMWrite pool = %g, want %g", m.PMEMWrite.bps, cfg.PMEMWriteBandwidth)
	}
	if m.PMEMRead.bps != cfg.PMEMReadBandwidth {
		t.Errorf("PMEMRead pool = %g, want %g", m.PMEMRead.bps, cfg.PMEMReadBandwidth)
	}
	if m.DRAM.bps != cfg.DRAMBandwidth {
		t.Errorf("DRAM pool = %g, want %g", m.DRAM.bps, cfg.DRAMBandwidth)
	}
	if m.Config().Cores != cfg.Cores {
		t.Errorf("Config().Cores = %d, want %d", m.Config().Cores, cfg.Cores)
	}
}

func TestMachineSetConcurrency(t *testing.T) {
	m := NewMachine(DefaultConfig())
	m.SetConcurrency(8)
	// At 8 ranks the raw share (1 GB/s) exceeds the per-rank cap, so the
	// cap governs.
	if got, want := m.PMEMWrite.GroupShare(1), DefaultConfig().PMEMPerRankWriteBW; got != want {
		t.Fatalf("PMEMWrite share at 8 ranks = %g, want %g", got, want)
	}
	if got, want := m.DRAM.GroupShare(1), 50*GB/8; got != want {
		t.Fatalf("DRAM share at 8 ranks = %g, want %g", got, want)
	}
	m.SetConcurrency(24)
	if got, want := m.PMEMWrite.GroupShare(1), 8*GB/24; got != want {
		t.Fatalf("PMEMWrite share at 24 ranks = %g, want %g", got, want)
	}
}

func TestNewMachinePanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewMachine(invalid) did not panic")
		}
	}()
	NewMachine(Config{})
}
