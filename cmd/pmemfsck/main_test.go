package main

import (
	"strings"
	"testing"
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
// first violated invariant (ht.value).
func TestFsckTornMetadataRecord(t *testing.T) { fsckCase(t, "fsck_torn_1.golden", 1, "-corrupt") }

func TestFsckCleanSetExitsZero(t *testing.T) { fsckCase(t, "fsck_clean_4.golden", 0, "-pools", "4") }

// TestFsckSmashedSetMember is the same regression on a 4-member set: the
// record torn on member 3 is found under the published set.
func TestFsckSmashedSetMember(t *testing.T) {
	fsckCase(t, "fsck_torn_4.golden", 1, "-pools", "4", "-corrupt")
}

func TestUnknownModeExitsTwo(t *testing.T) {
	var out strings.Builder
	if code := run([]string{"-mode", "nonsense"}, &out); code != 2 {
		t.Fatalf("exit %d on unknown mode (want 2)", code)
	}
}

// TestSweepModeStillPasses pins the original sweep behavior end to end on
// one adversary (the full matrix runs in CI via the binary / make verify).
func TestSweepModeStillPasses(t *testing.T) {
	var out strings.Builder
	if code := run([]string{"-mode", "loseall"}, &out); code != 0 {
		t.Fatalf("sweep failed (exit %d):\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "OK: all") {
		t.Fatalf("sweep output:\n%s", out.String())
	}
}
