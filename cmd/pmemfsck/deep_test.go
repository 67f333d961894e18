package main

import (
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

var poolOffset = regexp.MustCompile(`at offset \d+`)

// golden compares got against testdata/<name>, rewriting it under -update.
// The whole report — block counts, bytes, the damaged ids and lengths — is
// pinned byte-for-byte, except pool offsets: the store is built by concurrent
// ranks, so where each rank's blocks land depends on goroutine scheduling
// (the pinned offsets drifted in 6 of 20 plain runs, more under -race).
func golden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update): %v", err)
	}
	if got != string(want) {
		t.Fatalf("output drifted from %s:\n--- got ---\n%s--- want ---\n%s", path, got, want)
	}
}

func TestDeepCleanStoreExitsZero(t *testing.T) {
	var out strings.Builder
	if code := run([]string{"-deep"}, &out); code != 0 {
		t.Fatalf("exit %d on a clean store (want 0), output:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "deep check clean") {
		t.Fatalf("output missing clean summary:\n%s", out.String())
	}
	golden(t, "deep_clean.golden", out.String())
}

// TestDeepCorruptStoreExitsTwo is the regression for silent-corruption
// detection: damaged stored bytes with untouched checksums must exit 2 and
// name every damaged block's id, block index, pool offset, and length.
func TestDeepCorruptStoreExitsTwo(t *testing.T) {
	var out strings.Builder
	if code := run([]string{"-deep", "-corrupt"}, &out); code != 2 {
		t.Fatalf("exit %d on a corrupt store (want 2), output:\n%s", code, out.String())
	}
	s := out.String()
	for _, want := range []string{
		`corrupt: id "rect1" block 0 at offset `,
		`corrupt: id "sim/label" value at offset `, // inline: the offset lies in the record's value block
		`corrupt: id "sim/notes" value at offset `, // a block behind a value ref
	} {
		if !strings.Contains(s, want) {
			t.Fatalf("output missing %q:\n%s", want, s)
		}
	}
	golden(t, "deep_corrupt.golden", poolOffset.ReplaceAllString(s, "at offset N"))
}
