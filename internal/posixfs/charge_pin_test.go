package posixfs

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pmemcpy/internal/sim"
)

var update = flag.Bool("update", false, "rewrite testdata goldens with the observed values")

// TestKernelPathNanosPinned holds the kernel path's virtual-time charges to
// the exact nanosecond against testdata/kernel_ns.golden: each call is charged
// to its own zeroed clock, so a line is that call's syscall plus whatever
// device traffic and persists it issued — create, open, a 4 KB and a 1 MB
// write, a write past EOF (the hole is not charged), reads of both sizes and
// one at EOF, fsync, mmap, stat and remove.
func TestKernelPathNanosPinned(t *testing.T) {
	fs, _ := newTestFS(t, 0)
	var got strings.Builder
	var f *File
	step := func(name string, fn func(clk *sim.Clock) error) {
		t.Helper()
		var clk sim.Clock
		if err := fn(&clk); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		fmt.Fprintf(&got, "%s %d\n", name, int64(clk.Now()))
	}
	step("create", func(clk *sim.Clock) (err error) { f, err = fs.Create(clk, "/pin.bin"); return })
	step("write-4k", func(clk *sim.Clock) error { _, err := f.WriteAt(clk, make([]byte, 4096), 0); return err })
	step("write-1m", func(clk *sim.Clock) error { _, err := f.WriteAt(clk, make([]byte, 1<<20), 4096); return err })
	step("write-past-eof", func(clk *sim.Clock) error { _, err := f.WriteAt(clk, make([]byte, 13), 2<<20); return err })
	step("sync", func(clk *sim.Clock) error { return f.Sync(clk) })
	step("open", func(clk *sim.Clock) (err error) { f, err = fs.Open(clk, "/pin.bin"); return })
	step("read-4k", func(clk *sim.Clock) error { _, err := f.ReadAt(clk, make([]byte, 4096), 0); return err })
	step("read-1m", func(clk *sim.Clock) error { _, err := f.ReadAt(clk, make([]byte, 1<<20), 4096); return err })
	step("read-at-eof", func(clk *sim.Clock) error { _, err := f.ReadAt(clk, make([]byte, 64), f.Size()); return err })
	step("stat", func(clk *sim.Clock) error { _, err := fs.Stat(clk, "/pin.bin"); return err })
	step("remove", func(clk *sim.Clock) error { return fs.Remove(clk, "/pin.bin") })
	step("mmap", func(clk *sim.Clock) error {
		m, err := fs.Create(clk, "/map.pool")
		if err != nil {
			return err
		}
		if err := m.Truncate(clk, 1<<20); err != nil {
			return err
		}
		_, err = m.Mmap(clk, true)
		return err
	})

	goldenPath := filepath.Join("testdata", "kernel_ns.golden")
	if *update {
		if err := os.WriteFile(goldenPath, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("reading golden (regenerate with -update): %v", err)
	}
	if got.String() != string(want) {
		t.Errorf("kernel-path charges drifted from %s\ngot:\n%s", goldenPath, got.String())
	}
}
