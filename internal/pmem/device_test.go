package pmem

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"pmemcpy/internal/sim"
)

// ptTest tags persists issued directly by this test file.
var ptTest = RegisterPoint("pmem.test")

func testMachine() *sim.Machine {
	m := sim.NewMachine(sim.DefaultConfig())
	m.SetConcurrency(1)
	return m
}

func TestNewPanicsOnBadSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(size=0) did not panic")
		}
	}()
	New(testMachine(), 0)
}

func TestSliceAliasesDevice(t *testing.T) {
	d := New(testMachine(), 4096)
	s, err := d.Slice(100, 16)
	if err != nil {
		t.Fatal(err)
	}
	copy(s, "hello")
	s2, err := d.Slice(100, 5)
	if err != nil {
		t.Fatal(err)
	}
	if string(s2) != "hello" {
		t.Fatalf("Slice not aliased: got %q", s2)
	}
}

func TestSliceCapacityClamped(t *testing.T) {
	d := New(testMachine(), 4096)
	s, err := d.Slice(0, 64)
	if err != nil {
		t.Fatal(err)
	}
	if cap(s) != 64 {
		t.Fatalf("Slice cap = %d, want 64 (full-slice expression must clamp)", cap(s))
	}
}

func TestOutOfRangeAccesses(t *testing.T) {
	d := New(testMachine(), 1024)
	var clk sim.Clock
	cases := []struct{ off, n int64 }{
		{-1, 10}, {1020, 8}, {0, 2000}, {1024, 1},
	}
	for _, c := range cases {
		if _, err := d.Slice(c.off, c.n); !errors.Is(err, ErrOutOfRange) {
			t.Errorf("Slice(%d,%d) err = %v, want ErrOutOfRange", c.off, c.n, err)
		}
	}
	if _, err := d.ReadAt(&clk, make([]byte, 8), 1020); !errors.Is(err, ErrOutOfRange) {
		t.Errorf("ReadAt out of range err = %v", err)
	}
	if _, err := d.WriteAt(&clk, make([]byte, 8), 1020); !errors.Is(err, ErrOutOfRange) {
		t.Errorf("WriteAt out of range err = %v", err)
	}
	if err := d.Persist(&clk, 1020, 8, ptTest); !errors.Is(err, ErrOutOfRange) {
		t.Errorf("Persist out of range err = %v", err)
	}
}

func TestReadWriteRoundTrip(t *testing.T) {
	d := New(testMachine(), 4096)
	var clk sim.Clock
	msg := []byte("persistent memory emulation")
	if n, err := d.WriteAt(&clk, msg, 64); err != nil || n != len(msg) {
		t.Fatalf("WriteAt = %d, %v", n, err)
	}
	got := make([]byte, len(msg))
	if n, err := d.ReadAt(&clk, got, 64); err != nil || n != len(msg) {
		t.Fatalf("ReadAt = %d, %v", n, err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("round trip mismatch: %q != %q", got, msg)
	}
}

func TestChargeReadCost(t *testing.T) {
	d := New(testMachine(), 4096)
	cfg := d.Machine().Config()
	var clk sim.Clock
	const n = 1_000_000_000
	d.ChargeRead(&clk, n, false)
	// One rank is limited by the per-rank read cap, plus one read latency.
	want := sim.BytesAt(n, cfg.PMEMPerRankReadBW) + cfg.PMEMReadLatency
	if got := clk.Now(); got != want {
		t.Fatalf("ChargeRead cost = %v, want %v", got, want)
	}
}

func TestChargeWriteCost(t *testing.T) {
	d := New(testMachine(), 4096)
	cfg := d.Machine().Config()
	var clk sim.Clock
	const n = 1_000_000_000
	d.ChargeWrite(&clk, n, false)
	want := sim.BytesAt(n, cfg.PMEMPerRankWriteBW) + cfg.PMEMWriteLatency
	if got := clk.Now(); got != want {
		t.Fatalf("ChargeWrite cost = %v, want %v", got, want)
	}
}

func TestAggregateBandwidthDominatesAtScale(t *testing.T) {
	// At 24 concurrent ranks the pool share (8/24 GB/s) is below the
	// per-rank cap, so the aggregate limit governs.
	m := sim.NewMachine(sim.DefaultConfig())
	m.SetConcurrency(24)
	d := New(m, 4096)
	cfg := m.Config()
	var clk sim.Clock
	const n = 1_000_000_000
	d.ChargeWrite(&clk, n, false)
	want := sim.BytesAt(n, cfg.PMEMWriteBandwidth/24) + cfg.PMEMWriteLatency
	if got := clk.Now(); got != want {
		t.Fatalf("ChargeWrite at 24 ranks = %v, want %v", got, want)
	}
}

func TestChargeReadMapSyncPenalty(t *testing.T) {
	d := New(testMachine(), 4096)
	var a, b sim.Clock
	const n = 64 * 1000
	d.ChargeRead(&a, n, false)
	d.ChargeRead(&b, n, true)
	cfg := d.Machine().Config()
	if got, want := b.Now()-a.Now(), 1000*cfg.MapSyncLine; got != want {
		t.Fatalf("MAP_SYNC read extra = %v, want %v", got, want)
	}
}

func TestChargeWriteMapSyncPenalty(t *testing.T) {
	d := New(testMachine(), 4096)
	var a, b sim.Clock
	const n = 64 * 1000 // exactly 1000 cachelines
	d.ChargeWrite(&a, n, false)
	d.ChargeWrite(&b, n, true)
	cfg := d.Machine().Config()
	wantExtra := 1000 * cfg.MapSyncLine
	if got := b.Now() - a.Now(); got != wantExtra {
		t.Fatalf("MAP_SYNC extra = %v, want %v", got, wantExtra)
	}
}

func TestChargeIgnoresNonPositive(t *testing.T) {
	d := New(testMachine(), 4096)
	var clk sim.Clock
	d.ChargeRead(&clk, 0, false)
	d.ChargeWrite(&clk, -5, true)
	if clk.Now() != 0 {
		t.Fatalf("non-positive charges advanced clock to %v", clk.Now())
	}
}

func TestLines(t *testing.T) {
	tests := []struct {
		off, n, want int64
	}{
		{0, 0, 0},
		{0, 1, 1},
		{0, 64, 1},
		{0, 65, 2},
		{63, 2, 2},
		{64, 64, 1},
		{10, 128, 3},
	}
	for _, tt := range tests {
		if lo, hi := lineRange(tt.off, tt.n); hi-lo != tt.want {
			t.Errorf("lineRange(%d,%d) covers %d lines, want %d", tt.off, tt.n, hi-lo, tt.want)
		}
	}
}

func TestCrashLoseAllRollsBackUnpersisted(t *testing.T) {
	d := New(testMachine(), 4096, WithCrashTracking())
	var clk sim.Clock
	if _, err := d.WriteAt(&clk, []byte("AAAA"), 0); err != nil {
		t.Fatal(err)
	}
	if err := d.Persist(&clk, 0, 4, ptTest); err != nil {
		t.Fatal(err)
	}
	if _, err := d.WriteAt(&clk, []byte("BBBB"), 0); err != nil {
		t.Fatal(err)
	}
	// "BBBB" never persisted: crash must restore "AAAA".
	d.Crash(CrashLoseAll, nil)
	got := make([]byte, 4)
	if _, err := d.ReadAt(&clk, got, 0); err != nil {
		t.Fatal(err)
	}
	if string(got) != "AAAA" {
		t.Fatalf("after crash got %q, want AAAA", got)
	}
	if d.DirtyLines() != 0 {
		t.Fatalf("DirtyLines after crash = %d, want 0", d.DirtyLines())
	}
}

func TestCrashKeepAllRetainsWrites(t *testing.T) {
	d := New(testMachine(), 4096, WithCrashTracking())
	var clk sim.Clock
	if _, err := d.WriteAt(&clk, []byte("CCCC"), 128); err != nil {
		t.Fatal(err)
	}
	d.Crash(CrashKeepAll, nil)
	got := make([]byte, 4)
	if _, err := d.ReadAt(&clk, got, 128); err != nil {
		t.Fatal(err)
	}
	if string(got) != "CCCC" {
		t.Fatalf("after keep-all crash got %q, want CCCC", got)
	}
}

func TestPersistedLinesSurviveCrash(t *testing.T) {
	d := New(testMachine(), 4096, WithCrashTracking())
	var clk sim.Clock
	if _, err := d.WriteAt(&clk, []byte("DDDD"), 256); err != nil {
		t.Fatal(err)
	}
	if err := d.Persist(&clk, 256, 4, ptTest); err != nil {
		t.Fatal(err)
	}
	d.Crash(CrashLoseAll, nil)
	got := make([]byte, 4)
	if _, err := d.ReadAt(&clk, got, 256); err != nil {
		t.Fatal(err)
	}
	if string(got) != "DDDD" {
		t.Fatalf("persisted data lost in crash: got %q", got)
	}
}

func TestCrashRandomGranularityIsCacheline(t *testing.T) {
	d := New(testMachine(), 4096, WithCrashTracking())
	var clk sim.Clock
	old := bytes.Repeat([]byte{0xAA}, 1024)
	if _, err := d.WriteAt(&clk, old, 0); err != nil {
		t.Fatal(err)
	}
	if err := d.Persist(&clk, 0, 1024, ptTest); err != nil {
		t.Fatal(err)
	}
	newData := bytes.Repeat([]byte{0xBB}, 1024)
	if _, err := d.WriteAt(&clk, newData, 0); err != nil {
		t.Fatal(err)
	}
	d.Crash(CrashRandom, rand.New(rand.NewSource(42)))
	got := make([]byte, 1024)
	if _, err := d.ReadAt(&clk, got, 0); err != nil {
		t.Fatal(err)
	}
	// Every cacheline must be uniformly old or new, never torn within a line.
	for l := 0; l < len(got)/sim.CachelineSize; l++ {
		line := got[l*sim.CachelineSize : (l+1)*sim.CachelineSize]
		first := line[0]
		if first != 0xAA && first != 0xBB {
			t.Fatalf("line %d has unexpected byte %#x", l, first)
		}
		for _, b := range line {
			if b != first {
				t.Fatalf("line %d torn: %#x and %#x", l, first, b)
			}
		}
	}
}

// TestCrashRandomSameSeed holds CrashRandom to its seed: the same dirty set
// crashed under the same seed leaves the same bytes, so a failed crash
// simulation replays stand-alone.
func TestCrashRandomSameSeed(t *testing.T) {
	crash := func() []byte {
		d := New(testMachine(), 1<<16, WithCrashTracking())
		var clk sim.Clock
		if _, err := d.WriteAt(&clk, bytes.Repeat([]byte{0xBB}, 1<<16), 0); err != nil {
			t.Fatal(err)
		}
		d.Crash(CrashRandom, rand.New(rand.NewSource(42)))
		got := make([]byte, 1<<16)
		if _, err := d.ReadAt(&clk, got, 0); err != nil {
			t.Fatal(err)
		}
		return got
	}
	first := crash()
	if !bytes.Contains(first, []byte{0xBB}) || !bytes.Contains(first, []byte{0}) {
		t.Fatal("the random adversary kept or lost every one of 1024 lines")
	}
	for i := 0; i < 5; i++ {
		if !bytes.Equal(crash(), first) {
			t.Fatalf("replay %d under the same seed left different bytes", i)
		}
	}
}

func TestCrashPanicsWithoutTracking(t *testing.T) {
	d := New(testMachine(), 4096)
	defer func() {
		if recover() == nil {
			t.Fatal("Crash without tracking did not panic")
		}
	}()
	d.Crash(CrashLoseAll, nil)
}

func TestCaptureRangePreservesFirstPreimage(t *testing.T) {
	d := New(testMachine(), 4096, WithCrashTracking())
	var clk sim.Clock
	if _, err := d.WriteAt(&clk, []byte("1111"), 0); err != nil {
		t.Fatal(err)
	}
	if err := d.Persist(&clk, 0, 4, ptTest); err != nil {
		t.Fatal(err)
	}
	// Two successive unpersisted writes: the pre-image is the persisted state,
	// not the intermediate one.
	if _, err := d.WriteAt(&clk, []byte("2222"), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := d.WriteAt(&clk, []byte("3333"), 0); err != nil {
		t.Fatal(err)
	}
	d.Crash(CrashLoseAll, nil)
	got := make([]byte, 4)
	if _, err := d.ReadAt(&clk, got, 0); err != nil {
		t.Fatal(err)
	}
	if string(got) != "1111" {
		t.Fatalf("crash restored %q, want first persisted image 1111", got)
	}
}

func TestDirtyLinesAccounting(t *testing.T) {
	d := New(testMachine(), 4096, WithCrashTracking())
	var clk sim.Clock
	if _, err := d.WriteAt(&clk, make([]byte, 256), 0); err != nil {
		t.Fatal(err)
	}
	if got := d.DirtyLines(); got != 4 {
		t.Fatalf("DirtyLines = %d, want 4", got)
	}
	if err := d.Persist(&clk, 0, 128, ptTest); err != nil {
		t.Fatal(err)
	}
	if got := d.DirtyLines(); got != 2 {
		t.Fatalf("DirtyLines after partial persist = %d, want 2", got)
	}
}

// Property: write+persist+crash always round-trips arbitrary payloads at
// arbitrary (in-range) offsets.
func TestQuickPersistedWritesSurviveAnyCrash(t *testing.T) {
	const devSize = 1 << 16
	d := New(testMachine(), devSize, WithCrashTracking())
	rng := rand.New(rand.NewSource(7))
	f := func(data []byte, offRaw uint16, mode uint8) bool {
		if len(data) == 0 {
			return true
		}
		var clk sim.Clock
		off := int64(offRaw) % (devSize - int64(len(data)))
		if _, err := d.WriteAt(&clk, data, off); err != nil {
			return false
		}
		if err := d.Persist(&clk, off, int64(len(data)), ptTest); err != nil {
			return false
		}
		d.Crash(CrashMode(mode%3), rng)
		got := make([]byte, len(data))
		if _, err := d.ReadAt(&clk, got, off); err != nil {
			return false
		}
		return bytes.Equal(got, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
