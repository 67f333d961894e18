package fsck

import (
	"encoding/binary"
	"fmt"
	"strings"
	"testing"

	"pmemcpy/internal/pmdk"
	"pmemcpy/internal/pmem"
	"pmemcpy/internal/sim"
)

// buildPool creates a mapping holding a pool with a published hashtable of a
// few keys, mirroring how core.Mmap formats a store.
func buildPool(t *testing.T) (*pmem.Mapping, *pmdk.Hashtable, *sim.Clock) {
	t.Helper()
	mach := sim.NewMachine(sim.DefaultConfig())
	mach.SetConcurrency(1)
	dev := pmem.New(mach, 4<<20)
	m, err := pmem.NewMapping(dev, 0, 4<<20, false)
	if err != nil {
		t.Fatal(err)
	}
	clk := new(sim.Clock)
	pool, err := pmdk.Create(clk, m, nil)
	if err != nil {
		t.Fatal(err)
	}
	tx, err := pool.Begin(clk)
	if err != nil {
		t.Fatal(err)
	}
	htID, err := pmdk.CreateHashtable(tx, 64)
	if err != nil {
		t.Fatal(err)
	}
	root, _ := pool.Root()
	if err := tx.WriteU64(root, uint64(htID)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	h, err := pmdk.OpenHashtable(clk, pool, htID)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if err := h.Put(clk, []byte(fmt.Sprintf("var-%d", i)), []byte("payload")); err != nil {
			t.Fatal(err)
		}
	}
	return m, h, clk
}

func TestCheckCleanPool(t *testing.T) {
	m, _, clk := buildPool(t)
	rep, err := Check(clk, m)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("clean pool reported violations: %v", rep.Violations)
	}
	if !rep.HasTable || rep.Keys != 6 {
		t.Fatalf("report = %+v, want HasTable with 6 keys", rep)
	}
	if rep.First() != nil {
		t.Fatal("First() on a clean report must be nil")
	}
}

func TestCheckTornMetadataRecord(t *testing.T) {
	m, h, clk := buildPool(t)
	// Tear the metadata record of one key: scribble the state word of its
	// value block's header, as a torn cacheline across the header boundary
	// would. The heap walk at open trusts no header, so the pool is refused
	// as corrupt: the checker must flag it and name the header.
	vid, _, ok, err := h.GetRef(clk, []byte("var-3"))
	if err != nil || !ok {
		t.Fatalf("GetRef: %v ok=%v", err, ok)
	}
	s, err := m.Slice(int64(vid)-8, 8)
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint64(s, 0x7042)

	rep, err := Check(clk, m)
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK() {
		t.Fatal("torn metadata record not detected")
	}
	if first := rep.First(); first == nil || first.Invariant != "pool.open" ||
		!strings.Contains(first.Detail, fmt.Sprintf("block header at %d", vid-16)) {
		t.Fatalf("First() = %v, want a pool.open violation naming the header at %d", rep.First(), vid-16)
	}
}

func TestCheckCorruptHeader(t *testing.T) {
	m, _, clk := buildPool(t)
	s, err := m.Slice(0, 8)
	if err != nil {
		t.Fatal(err)
	}
	copy(s, "GARBAGE!")
	rep, err := Check(clk, m)
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK() || rep.First().Invariant != "pool.open" {
		t.Fatalf("corrupt header: report = %s", rep.Summary())
	}
}

func TestCheckBarePool(t *testing.T) {
	mach := sim.NewMachine(sim.DefaultConfig())
	mach.SetConcurrency(1)
	dev := pmem.New(mach, 1<<20)
	m, err := pmem.NewMapping(dev, 0, 1<<20, false)
	if err != nil {
		t.Fatal(err)
	}
	clk := new(sim.Clock)
	if _, err := pmdk.Create(clk, m, nil); err != nil {
		t.Fatal(err)
	}
	rep, err := Check(clk, m)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() || rep.HasTable {
		t.Fatalf("bare pool: report = %s", rep.Summary())
	}
}

// TestDeepReportUnranged: an array whose block list lost a dropped block's
// value range is a finding of its own — the report is not OK, and the
// summary names it when no block is corrupt.
func TestDeepReportUnranged(t *testing.T) {
	rep := &DeepReport{Blocks: 3, Bytes: 96}
	if !rep.OK() || !strings.HasPrefix(rep.Summary(), "deep check clean") {
		t.Fatalf("clean report: OK=%v %q", rep.OK(), rep.Summary())
	}
	rep.Unranged = []string{"grid"}
	if rep.OK() || !strings.Contains(rep.Summary(), `"grid"`) {
		t.Errorf("unranged report: OK=%v %q", rep.OK(), rep.Summary())
	}
	rep.Corrupt = []Corruption{{ID: "grid", Block: 0, Offset: 4096, Len: 32}}
	if rep.OK() || !strings.HasPrefix(rep.Summary(), "1 corrupt block(s) of 3 checked") {
		t.Errorf("corrupt report: OK=%v %q", rep.OK(), rep.Summary())
	}
}
