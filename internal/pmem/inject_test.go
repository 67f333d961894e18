package pmem

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"pmemcpy/internal/sim"
)

// write stores data at off through the DAX path with capture, without
// persisting, so tests control durability explicitly.
func write(t *testing.T, d *Device, clk *sim.Clock, off int64, data []byte) {
	t.Helper()
	if err := d.CaptureRange(off, int64(len(data))); err != nil {
		t.Fatal(err)
	}
	s, err := d.Slice(off, int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	copy(s, data)
	d.ChargeWrite(clk, int64(len(data)), false)
}

func TestRegisterPointIdempotent(t *testing.T) {
	a := RegisterPoint("pmem.test.idempotent")
	b := RegisterPoint("pmem.test.idempotent")
	if a != b {
		t.Fatalf("RegisterPoint returned %d then %d for the same name", a, b)
	}
	if PointName(a) != "pmem.test.idempotent" {
		t.Fatalf("PointName(%d) = %q", a, PointName(a))
	}
	if got := PointName(PointID(1 << 30)); got == "" {
		t.Fatal("PointName of unknown ID must not be empty")
	} else if got == "pmem.test.idempotent" {
		t.Fatalf("PointName of unknown ID = %q", got)
	}
}

func TestArmCrashAtOpOrdinal(t *testing.T) {
	d := New(testMachine(), 4096, WithCrashTracking())
	var clk sim.Clock
	// Persists before arming do not count toward the ordinal.
	write(t, d, &clk, 0, []byte("setup"))
	if err := d.Persist(&clk, 0, 5, ptTest); err != nil {
		t.Fatal(err)
	}
	d.ArmCrashAtOp(2, 0)
	for k := 0; k < 2; k++ {
		if err := d.Persist(&clk, 64, 8, ptTest); err != nil {
			t.Fatalf("persist %d before the armed ordinal failed: %v", k, err)
		}
	}
	err := d.Persist(&clk, 128, 8, ptTest)
	if !errors.Is(err, ErrFailed) {
		t.Fatalf("armed persist returned %v, want ErrFailed", err)
	}
	if !d.Failed() {
		t.Fatal("device must be dead after the armed crash")
	}
	if err := d.Persist(&clk, 0, 8, ptTest); !errors.Is(err, ErrFailed) {
		t.Fatalf("post-crash persist returned %v, want ErrFailed", err)
	}
}

func TestArmedCrashDropsInFlightStore(t *testing.T) {
	d := New(testMachine(), 4096, WithCrashTracking())
	var clk sim.Clock
	old := bytes.Repeat([]byte{0xAA}, 256)
	write(t, d, &clk, 0, old)
	if err := d.Persist(&clk, 0, 256, ptTest); err != nil {
		t.Fatal(err)
	}
	d.ArmCrashAtOp(0, 0)
	neu := bytes.Repeat([]byte{0xBB}, 256)
	write(t, d, &clk, 0, neu)
	if err := d.Persist(&clk, 0, 256, ptTest); !errors.Is(err, ErrFailed) {
		t.Fatalf("persist = %v, want ErrFailed", err)
	}
	d.Crash(CrashLoseAll, nil)
	s, err := d.Slice(0, 256)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(s, old) {
		t.Fatal("a clean (untorn) armed crash must roll the in-flight store back entirely")
	}
}

func TestTornPersistIsDeterministicSubset(t *testing.T) {
	run := func(seed uint64) []byte {
		d := New(testMachine(), 4096, WithCrashTracking())
		var clk sim.Clock
		old := bytes.Repeat([]byte{0xAA}, 512)
		write(t, d, &clk, 0, old)
		if err := d.Persist(&clk, 0, 512, ptTest); err != nil {
			t.Fatal(err)
		}
		d.ArmCrashAtOp(0, seed)
		write(t, d, &clk, 0, bytes.Repeat([]byte{0xBB}, 512))
		if err := d.Persist(&clk, 0, 512, ptTest); !errors.Is(err, ErrFailed) {
			t.Fatalf("persist = %v, want ErrFailed", err)
		}
		d.Crash(CrashLoseAll, nil)
		s, err := d.Slice(0, 512)
		if err != nil {
			t.Fatal(err)
		}
		return append([]byte(nil), s...)
	}
	a := run(12345)
	b := run(12345)
	if !bytes.Equal(a, b) {
		t.Fatal("torn persist with the same seed must be byte-identical across runs")
	}
	// The tear must be line-granular: every cacheline is uniformly old or new.
	oldLines, newLines := 0, 0
	for l := 0; l < 512/int(sim.CachelineSize); l++ {
		line := a[l*int(sim.CachelineSize) : (l+1)*int(sim.CachelineSize)]
		switch {
		case bytes.Equal(line, bytes.Repeat([]byte{0xAA}, int(sim.CachelineSize))):
			oldLines++
		case bytes.Equal(line, bytes.Repeat([]byte{0xBB}, int(sim.CachelineSize))):
			newLines++
		default:
			t.Fatalf("line %d mixes old and new bytes: tear is not cacheline-granular", l)
		}
	}
	if oldLines == 0 || newLines == 0 {
		t.Fatalf("tear with seed 12345 kept %d old / %d new lines; want a proper mix",
			oldLines, newLines)
	}
}

func TestTransientRetryBackoff(t *testing.T) {
	d := New(testMachine(), 4096)
	var clk sim.Clock
	write(t, d, &clk, 0, []byte{1})
	before := clk.Now()
	if err := d.Persist(&clk, 0, 1, ptTest); err != nil {
		t.Fatal(err)
	}
	cleanCost := clk.Now() - before

	d.InjectTransient(0, 2)
	before = clk.Now()
	if err := d.Persist(&clk, 0, 1, ptTest); err != nil {
		t.Fatalf("persist with 2 transient failures must succeed via retry, got %v", err)
	}
	retried := clk.Now() - before
	if retried <= cleanCost {
		t.Fatalf("retried persist cost %v, want more than clean cost %v (backoff charged)", retried, cleanCost)
	}
	if got := d.PersistRetries(); got != 2 {
		t.Fatalf("PersistRetries = %d, want 2", got)
	}
	// The injected failures are consumed: the same ordinal does not re-fire.
	if err := d.Persist(&clk, 0, 1, ptTest); err != nil {
		t.Fatal(err)
	}
}

func TestTransientExhaustionIsMediaError(t *testing.T) {
	d := New(testMachine(), 4096)
	var clk sim.Clock
	write(t, d, &clk, 0, []byte{1})
	d.InjectTransient(0, persistMaxRetries+1)
	err := d.Persist(&clk, 0, 1, ptTest)
	if !errors.Is(err, ErrMedia) {
		t.Fatalf("persist with %d transient failures = %v, want ErrMedia", persistMaxRetries+1, err)
	}
	if d.Failed() {
		t.Fatal("ErrMedia must not be sticky: the device stays alive")
	}
	if got := d.MediaFailures(); got != 1 {
		t.Fatalf("MediaFailures = %d, want 1", got)
	}
	// The failed flush can be re-issued and succeeds.
	if err := d.Persist(&clk, 0, 1, ptTest); err != nil {
		t.Fatalf("re-issued persist after ErrMedia failed: %v", err)
	}
}

func TestTraceRecordsPersists(t *testing.T) {
	d := New(testMachine(), 4096)
	var clk sim.Clock
	ptA := RegisterPoint("pmem.test.a")
	ptB := RegisterPoint("pmem.test.b")
	write(t, d, &clk, 0, []byte("x"))
	if err := d.Persist(&clk, 0, 1, ptTest); err != nil { // before StartTrace: unrecorded
		t.Fatal(err)
	}
	d.StartTrace()
	if err := d.Persist(&clk, 0, 1, ptA); err != nil {
		t.Fatal(err)
	}
	if err := d.Persist(&clk, 64, 128, ptB); err != nil {
		t.Fatal(err)
	}
	ev := d.StopTrace()
	if len(ev) != 2 {
		t.Fatalf("trace has %d events, want 2: %+v", len(ev), ev)
	}
	want := []TraceEvent{
		{Point: ptA, Op: 0, Off: 0, Bytes: 1},
		{Point: ptB, Op: 1, Off: 64, Bytes: 128},
	}
	for i := range want {
		if ev[i] != want[i] {
			t.Fatalf("event %d = %+v, want %+v", i, ev[i], want[i])
		}
	}
	// After StopTrace no events accumulate.
	if err := d.Persist(&clk, 0, 1, ptA); err != nil {
		t.Fatal(err)
	}
	if ev := d.StopTrace(); len(ev) != 0 {
		t.Fatalf("trace after StopTrace has %d events, want 0", len(ev))
	}
}

func TestTraceMatchesArming(t *testing.T) {
	// The op ordinal a trace reports for a persist must be exactly the
	// ordinal ArmCrashAtOp needs to kill that persist in a replay.
	workload := func(d *Device, clk *sim.Clock) error {
		for i := int64(0); i < 5; i++ {
			write(t, d, clk, i*64, []byte{byte(i)})
			if err := d.Persist(clk, i*64, 1, ptTest); err != nil {
				return err
			}
		}
		return nil
	}
	d := New(testMachine(), 4096, WithCrashTracking())
	var clk sim.Clock
	d.StartTrace()
	if err := workload(d, &clk); err != nil {
		t.Fatal(err)
	}
	ev := d.StopTrace()
	if len(ev) != 5 {
		t.Fatalf("trace has %d events, want 5", len(ev))
	}
	for _, e := range ev {
		d2 := New(testMachine(), 4096, WithCrashTracking())
		var clk2 sim.Clock
		d2.ArmCrashAtOp(e.Op, 0)
		err := workload(d2, &clk2)
		if !errors.Is(err, ErrFailed) {
			t.Fatalf("replay armed at op %d: err = %v, want ErrFailed", e.Op, err)
		}
		d2.Crash(CrashLoseAll, nil)
		// Exactly the persists before e.Op survive.
		for i := int64(0); i < 5; i++ {
			s, err := d2.Slice(i*64, 1)
			if err != nil {
				t.Fatal(err)
			}
			want := byte(0)
			if i < e.Op {
				want = byte(i)
			}
			if s[0] != want {
				t.Fatalf("armed at op %d: byte %d = %d, want %d", e.Op, i, s[0], want)
			}
		}
	}
}

func TestCrashResetsInjection(t *testing.T) {
	d := New(testMachine(), 4096, WithCrashTracking())
	var clk sim.Clock
	d.ArmCrashAtOp(0, 99)
	d.InjectTransient(5, 1)
	d.StartTrace()
	d.Crash(CrashLoseAll, nil)
	// Everything disarmed: persists succeed and leave no trace.
	write(t, d, &clk, 0, []byte{1})
	if err := d.Persist(&clk, 0, 1, ptTest); err != nil {
		t.Fatalf("persist after Crash = %v, want nil", err)
	}
	if ev := d.StopTrace(); len(ev) != 0 {
		t.Fatalf("trace survived Crash: %d events", len(ev))
	}
}

func TestDisarmInjection(t *testing.T) {
	d := New(testMachine(), 4096)
	var clk sim.Clock
	d.ArmCrashAtOp(0, 0)
	d.DisarmInjection()
	write(t, d, &clk, 0, []byte{1})
	if err := d.Persist(&clk, 0, 1, ptTest); err != nil {
		t.Fatalf("persist after DisarmInjection = %v, want nil", err)
	}
}

func TestTornCrashRandomSeedVariation(t *testing.T) {
	// Different tear seeds should (generically) keep different line subsets.
	outcomes := make(map[string]bool)
	for seed := uint64(1); seed <= 8; seed++ {
		d := New(testMachine(), 4096, WithCrashTracking())
		var clk sim.Clock
		write(t, d, &clk, 0, bytes.Repeat([]byte{0xCC}, 1024))
		d.ArmCrashAtOp(0, seed)
		if err := d.Persist(&clk, 0, 1024, ptTest); !errors.Is(err, ErrFailed) {
			t.Fatalf("persist = %v, want ErrFailed", err)
		}
		d.Crash(CrashLoseAll, rand.New(rand.NewSource(1)))
		s, _ := d.Slice(0, 1024)
		outcomes[string(s)] = true
	}
	if len(outcomes) < 2 {
		t.Fatal("8 different tear seeds produced a single outcome; tear ignores the seed")
	}
}
