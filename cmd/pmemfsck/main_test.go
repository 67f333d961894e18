package main

import (
	"fmt"
	"strings"
	"testing"

	"pmemcpy/internal/core"
	"pmemcpy/internal/serial"
)

// fsckCase runs -fsck with args and holds the exit code and the whole report
// (the namespace is built single-threaded, so offsets are stable too) to
// testdata/<name>.
func fsckCase(t *testing.T, name string, wantCode int, args ...string) {
	t.Helper()
	var out strings.Builder
	if code := run(append([]string{"-fsck"}, args...), &out); code != wantCode {
		t.Fatalf("exit %d (want %d), output:\n%s", code, wantCode, out.String())
	}
	golden(t, name, out.String())
}

func TestFsckCleanPoolExitsZero(t *testing.T) { fsckCase(t, "fsck_clean_1.golden", 0) }

// TestFsckTornMetadataRecord is the regression for the corrupt-pool path: a
// deliberately torn metadata record must produce a nonzero exit and name the
// first violated invariant (pool.open: the heap walk at open refuses the torn
// block header).
func TestFsckTornMetadataRecord(t *testing.T) { fsckCase(t, "fsck_torn_1.golden", 1, "-corrupt") }

func TestFsckCleanSetExitsZero(t *testing.T) { fsckCase(t, "fsck_clean_4.golden", 0, "-pools", "4") }

// TestFsckSmashedSetMember is the same regression on a 4-member set: the
// record torn on member 3 is found under the published set.
func TestFsckSmashedSetMember(t *testing.T) {
	fsckCase(t, "fsck_torn_4.golden", 1, "-pools", "4", "-corrupt")
}

// TestDefaultModeExploresEveryPoint runs the default mode end to end: both
// scripts crashed at every reached persist point under keep-all and a torn
// store as well as lose-all and random, with no failure and no point left
// unexplored.
func TestDefaultModeExploresEveryPoint(t *testing.T) {
	var out strings.Builder
	if code := run(nil, &out); code != 0 {
		t.Fatalf("exit %d (want 0), output:\n%s", code, out.String())
	}
	got := out.String()
	for _, want := range []string{
		"variants: loseall, keepall, random, torn\n",
		`crash-point coverage for "serial"`,
		`crash-point coverage for "parallel"`,
		"OK: every reached persist point crash-tested",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("output lacks %q:\n%s", want, got)
		}
	}
	if strings.Contains(got, "UNEXPLORED") || strings.Contains(got, "FAIL") {
		t.Errorf("unexplored point or failure:\n%s", got)
	}
}

// TestExploreFailureExitsOne hands the explorer a script whose check wants
// the new value even after a crash, which a crash before the commit cannot
// give: the failures are listed and the exit is 1.
func TestExploreFailureExitsOne(t *testing.T) {
	strict := core.Script{
		Name:    "strict",
		DevSize: 8 << 20,
		Setup: func(p *core.PMEM) error {
			if err := p.Alloc("A", serial.Float64, []uint64{8}); err != nil {
				return err
			}
			return p.StoreBlock("A", []uint64{0}, []uint64{8}, fill(8, 1))
		},
		Run: func(p *core.PMEM) error {
			return p.StoreBlock("A", []uint64{0}, []uint64{8}, fill(8, 2))
		},
		Verify: func(p *core.PMEM) error {
			if v, err := uniform(p, "A", 8); err != nil || v != 2 {
				return fmt.Errorf("A = %g, %v; want all 2", v, err)
			}
			return nil
		},
	}
	var out strings.Builder
	if code := explore(&out, []core.Script{strict}); code != 1 {
		t.Fatalf("exit %d (want 1), output:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "  FAIL: persist ") {
		t.Fatalf("output names no failed crash point:\n%s", out.String())
	}
}
