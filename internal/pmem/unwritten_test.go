package pmem

import (
	"bytes"
	"sync"
	"testing"

	"pmemcpy/internal/sim"
)

const poison = 0xA5

// poisoned returns a device of n granules whose every byte is poison, as a
// recycled extent's stale bytes would be.
func poisoned(t *testing.T, granules int64, opts ...Option) *Device {
	t.Helper()
	d := New(testMachine(), granules*GranuleSize, opts...)
	s, err := d.Slice(0, d.Size())
	if err != nil {
		t.Fatal(err)
	}
	for i := range s {
		s[i] = poison
	}
	return d
}

// allIs reports whether every byte of b is v.
func allIs(b []byte, v byte) bool { return bytes.Count(b, []byte{v}) == len(b) }

// TestDiscardReadsZerosEverywhere discards a range with partial edges and
// reads it back through each access primitive: zeros inside, the neighbours'
// bytes untouched, and only the edges zeroed at Discard.
func TestDiscardReadsZerosEverywhere(t *testing.T) {
	const off, n = GranuleSize/2 + 8, 3 * GranuleSize
	for _, read := range []string{"Slice", "ReadAt", "CaptureRange"} {
		t.Run(read, func(t *testing.T) {
			d := poisoned(t, 6, WithCrashTracking())
			if err := d.Discard(off, n); err != nil {
				t.Fatal(err)
			}
			// The range's shares of its two edge granules add up to one.
			if got := d.Counters().ZeroedBytes; got != GranuleSize {
				t.Fatalf("Discard zeroed %d bytes, want the %d edge bytes", got, GranuleSize)
			}
			if got := d.unwritten.Load(); got != 2 {
				t.Fatalf("%d granules unwritten, want the 2 whole ones", got)
			}
			got := make([]byte, n)
			switch read {
			case "Slice":
				s, err := d.Slice(off, n)
				if err != nil {
					t.Fatal(err)
				}
				copy(got, s)
			case "ReadAt":
				if _, err := d.ReadAt(new(sim.Clock), got, off); err != nil {
					t.Fatal(err)
				}
			case "CaptureRange":
				if err := d.CaptureRange(off, n); err != nil {
					t.Fatal(err)
				}
				copy(got, d.data[off:off+n])
			}
			if !allIs(got, 0) {
				t.Fatalf("%s of a discarded range returned stale bytes", read)
			}
			if !allIs(d.data[:off], poison) || !allIs(d.data[off+n:], poison) {
				t.Fatal("bytes outside the discarded range changed")
			}
			if d.unwritten.Load() != 0 {
				t.Fatalf("%d granules still unwritten after a touch of all of them", d.unwritten.Load())
			}
		})
	}
}

// TestDiscardWithoutWholeGranule discards ranges that cover no whole granule —
// inside one, and across the boundary of two: every byte is zeroed at once,
// the neighbours' are kept, and no granule becomes unwritten.
func TestDiscardWithoutWholeGranule(t *testing.T) {
	for _, r := range [][2]int64{{100, 100}, {GranuleSize - 4096, 8192}, {GranuleSize, 0}} {
		d := poisoned(t, 2)
		off, n := r[0], r[1]
		if err := d.Discard(off, n); err != nil {
			t.Fatal(err)
		}
		if !allIs(d.data[off:off+n], 0) || !allIs(d.data[:off], poison) || !allIs(d.data[off+n:], poison) {
			t.Errorf("Discard(%d, %d) zeroed the wrong bytes", off, n)
		}
		if got := d.Counters().ZeroedBytes; got != n || d.unwritten.Load() != 0 {
			t.Errorf("Discard(%d, %d): zeroed %d bytes, %d granules unwritten; want %d, 0",
				off, n, got, d.unwritten.Load(), n)
		}
	}
}

// TestWriteAtTouchesWithoutTracking writes a few bytes into an unwritten
// granule through the kernel path with crash tracking off: the rest of the
// granule must read as zeros, not as what the extent held before.
func TestWriteAtTouchesWithoutTracking(t *testing.T) {
	d := poisoned(t, 2)
	if err := d.Discard(0, d.Size()); err != nil {
		t.Fatal(err)
	}
	if _, err := d.WriteAt(new(sim.Clock), []byte("new"), 100); err != nil {
		t.Fatal(err)
	}
	g := d.data[:GranuleSize]
	if string(g[100:103]) != "new" || !allIs(g[:100], 0) || !allIs(g[103:], 0) {
		t.Fatal("a partial WriteAt into an unwritten granule left stale bytes around it")
	}
	if !allIs(d.data[GranuleSize:], poison) {
		t.Fatal("the untouched granule was zeroed: first touch must be per granule")
	}
}

// TestOverwriteTakesWholeGranules takes a range with write intent: the whole
// granules inside it are not zeroed (the writer stores every byte), the edge
// granules are, and both count as written afterwards.
func TestOverwriteTakesWholeGranules(t *testing.T) {
	d := poisoned(t, 6)
	if err := d.Discard(0, d.Size()); err != nil {
		t.Fatal(err)
	}
	const off, n = GranuleSize + 64, 3 * GranuleSize
	if _, err := d.Overwrite(off, n); err != nil {
		t.Fatal(err)
	}
	if !allIs(d.data[2*GranuleSize:4*GranuleSize], poison) {
		t.Fatal("Overwrite zeroed the whole granules it took")
	}
	if !allIs(d.data[GranuleSize:2*GranuleSize], 0) || !allIs(d.data[4*GranuleSize:5*GranuleSize], 0) {
		t.Fatal("Overwrite left an edge granule unzeroed")
	}
	if got := d.Counters().ZeroedBytes; got != 2*GranuleSize {
		t.Fatalf("ZeroedBytes = %d, want the two edge granules", got)
	}
	if got := d.unwritten.Load(); got != 2 {
		t.Fatalf("%d granules unwritten, want the 2 outside the range", got)
	}
}

// TestOverwriteUnderTrackingCapturesZeros takes a discarded range with write
// intent on a crash-tracking device and loses the unpersisted stores: the
// range must roll back to zeros — the pre-image of an unwritten granule — not
// to what the extent held before.
func TestOverwriteUnderTrackingCapturesZeros(t *testing.T) {
	d := poisoned(t, 4, WithCrashTracking())
	if err := d.Discard(0, d.Size()); err != nil {
		t.Fatal(err)
	}
	s, err := d.Overwrite(GranuleSize, 2*GranuleSize)
	if err != nil {
		t.Fatal(err)
	}
	for i := range s {
		s[i] = 7
	}
	if got := d.DirtyLines(); got != 2*GranuleSize/sim.CachelineSize {
		t.Fatalf("%d dirty lines, want every line of the range captured", got)
	}
	d.Crash(CrashLoseAll, nil)
	got := make([]byte, d.Size())
	if _, err := d.ReadAt(new(sim.Clock), got, 0); err != nil {
		t.Fatal(err)
	}
	if !allIs(got, 0) {
		t.Fatal("a crash rolled an overwritten range back to stale bytes")
	}
}

// TestFirstTouchRace has two goroutines write disjoint bytes of one unwritten
// granule, one through Slice and one through WriteAt. Whichever touches first
// zeroes the granule; the other must not zero it again over the first one's
// bytes. Run it under -race -count=10.
func TestFirstTouchRace(t *testing.T) {
	d := poisoned(t, 1)
	for i := range 200 {
		if err := d.Discard(0, d.Size()); err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			s, err := d.Slice(0, 8)
			if err != nil {
				t.Error(err)
				return
			}
			copy(s, "slice...")
		}()
		go func() {
			defer wg.Done()
			if _, err := d.WriteAt(new(sim.Clock), []byte("writeat."), 4096); err != nil {
				t.Error(err)
			}
		}()
		wg.Wait()
		if string(d.data[:8]) != "slice..." || string(d.data[4096:4104]) != "writeat." {
			t.Fatalf("iteration %d: a write was lost to the other's first touch: %q %q",
				i, d.data[:8], d.data[4096:4104])
		}
	}
}

// TestTouchAtBitmapWordEdges touches single granules at the first and last
// bit of a bitmap word, then a range across two words: each touch zeroes
// exactly the granules it overlaps.
func TestTouchAtBitmapWordEdges(t *testing.T) {
	d := poisoned(t, 130)
	if err := d.Discard(0, d.Size()); err != nil {
		t.Fatal(err)
	}
	left := int64(130)
	for _, g := range []int64{0, 63, 64, 127, 129} {
		if _, err := d.Slice(g*GranuleSize+10, 1); err != nil {
			t.Fatal(err)
		}
		left--
		if !allIs(d.data[g*GranuleSize:(g+1)*GranuleSize], 0) || d.unwritten.Load() != left {
			t.Fatalf("touching granule %d: %d unwritten, want %d", g, d.unwritten.Load(), left)
		}
	}
	if _, err := d.Slice(61*GranuleSize, 6*GranuleSize); err != nil {
		t.Fatal(err)
	}
	if !allIs(d.data[61*GranuleSize:67*GranuleSize], 0) || d.unwritten.Load() != left-4 {
		t.Fatalf("a range across two words left %d unwritten, want %d", d.unwritten.Load(), left-4)
	}
	if !allIs(d.data[60*GranuleSize:61*GranuleSize], poison) {
		t.Fatal("a granule outside every touched range was zeroed")
	}
}
