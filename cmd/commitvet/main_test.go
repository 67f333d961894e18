package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// TestRulesOnFixture runs every rule over testdata/core and testdata/sim and
// requires exactly the findings the fixture marks with "// want <rule>"
// comments: the tx calls (the update cursor, Put and Delete among them) and
// the slice call, the go statement, the discarded views, the clock advance,
// the byte-order selector, the inline tag and the two layout comparisons of a
// planner file, the tx call of readplan.go, a discarded view (and nothing
// else) in a _test.go file, nothing in writeplan.go, wave.go or meta.go,
// nothing on ignored or non-pool lines, and nothing in a directory named sim.
func TestRulesOnFixture(t *testing.T) {
	var want, found []string
	files, err := filepath.Glob(filepath.Join("testdata", "*", "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	for _, dir := range []string{"core", "sim"} {
		f, err := checkDir(filepath.Join("testdata", dir))
		if err != nil {
			t.Fatal(err)
		}
		found = append(found, f...)
	}
	wantRe := regexp.MustCompile(`// want (\w+)$`)
	for _, name := range files {
		f, err := os.Open(name)
		if err != nil {
			t.Fatal(err)
		}
		sc := bufio.NewScanner(f)
		for line := 1; sc.Scan(); line++ {
			if m := wantRe.FindStringSubmatch(sc.Text()); m != nil {
				want = append(want, fmt.Sprintf("%s:%d [%s]", name, line, m[1]))
			}
		}
		f.Close()
	}
	sort.Strings(want)
	// Reduce "file:line:col: [rule] message" to "file:line [rule]".
	findingRe := regexp.MustCompile(`^(.+):(\d+):\d+: (\[\w+\])`)
	var got []string
	for _, f := range found {
		m := findingRe.FindStringSubmatch(f)
		if m == nil {
			t.Fatalf("malformed finding %q", f)
		}
		got = append(got, fmt.Sprintf("%s:%s %s", m[1], m[2], m[3]))
	}
	sort.Strings(got)
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("findings:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
	if len(want) != 18 {
		t.Errorf("fixture marks %d findings, expected 18 (16 planner + 1 readplan + 1 test file)", len(want))
	}
}

// TestRepoIsClean is the `make commitvet` gate as a unit test.
func TestRepoIsClean(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	dirs, err := expand([]string{root + "/..."})
	if err != nil || len(dirs) < 20 {
		t.Fatalf("walking the module from %s: %d directories, err %v", root, len(dirs), err)
	}
	for _, dir := range dirs {
		found, err := checkDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range found {
			t.Error(f)
		}
	}
}
