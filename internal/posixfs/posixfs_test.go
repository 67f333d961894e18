package posixfs

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"pmemcpy/internal/pmem"
	"pmemcpy/internal/sim"
)

func newTestFS(t *testing.T, size int64) (*FS, *sim.Clock) {
	t.Helper()
	if size == 0 {
		size = 16 << 20
	}
	m := sim.NewMachine(sim.DefaultConfig())
	m.SetConcurrency(1)
	return New(pmem.New(m, size)), new(sim.Clock)
}

func TestCreateWriteReadRoundTrip(t *testing.T) {
	fs, clk := newTestFS(t, 0)
	f, err := fs.Create(clk, "/data.bin")
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("hello persistent world")
	if n, err := f.WriteAt(clk, msg, 0); err != nil || n != len(msg) {
		t.Fatalf("WriteAt = %d, %v", n, err)
	}
	got := make([]byte, len(msg))
	if n, err := f.ReadAt(clk, got, 0); err != nil || n != len(msg) {
		t.Fatalf("ReadAt = %d, %v", n, err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("round trip: %q", got)
	}
	if f.Size() != int64(len(msg)) {
		t.Fatalf("Size = %d", f.Size())
	}
}

func TestOpenMissingFile(t *testing.T) {
	fs, clk := newTestFS(t, 0)
	if _, err := fs.Open(clk, "/nope"); !errors.Is(err, ErrNotExist) {
		t.Fatalf("err = %v, want ErrNotExist", err)
	}
}

func TestMkdirAndNesting(t *testing.T) {
	fs, clk := newTestFS(t, 0)
	if err := fs.Mkdir(clk, "/a"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Mkdir(clk, "/a/b"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Mkdir(clk, "/a"); !errors.Is(err, ErrExist) {
		t.Fatalf("duplicate Mkdir err = %v", err)
	}
	if err := fs.Mkdir(clk, "/missing/child"); !errors.Is(err, ErrNotExist) {
		t.Fatalf("Mkdir under missing parent err = %v", err)
	}
	f, err := fs.Create(clk, "/a/b/file")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(clk, []byte("x"), 0); err != nil {
		t.Fatal(err)
	}
	info, err := fs.Stat(clk, "/a/b/file")
	if err != nil {
		t.Fatal(err)
	}
	if info.IsDir || info.Size != 1 {
		t.Fatalf("Stat = %+v", info)
	}
}

func TestMkdirAll(t *testing.T) {
	fs, clk := newTestFS(t, 0)
	if err := fs.MkdirAll(clk, "/x/y/z"); err != nil {
		t.Fatal(err)
	}
	if err := fs.MkdirAll(clk, "/x/y/z"); err != nil {
		t.Fatalf("idempotent MkdirAll err = %v", err)
	}
	info, err := fs.Stat(clk, "/x/y/z")
	if err != nil || !info.IsDir {
		t.Fatalf("Stat(/x/y/z) = %+v, %v", info, err)
	}
	// MkdirAll through a file must fail.
	if _, err := fs.Create(clk, "/x/file"); err != nil {
		t.Fatal(err)
	}
	if err := fs.MkdirAll(clk, "/x/file/sub"); !errors.Is(err, ErrNotDir) {
		t.Fatalf("MkdirAll through file err = %v", err)
	}
}

func TestReadDirSorted(t *testing.T) {
	fs, clk := newTestFS(t, 0)
	for _, name := range []string{"/c", "/a", "/b"} {
		if _, err := fs.Create(clk, name); err != nil {
			t.Fatal(err)
		}
	}
	if err := fs.Mkdir(clk, "/d"); err != nil {
		t.Fatal(err)
	}
	ents, err := fs.ReadDir(clk, "/")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"a", "b", "c", "d"}
	if len(ents) != len(want) {
		t.Fatalf("ReadDir = %+v", ents)
	}
	for i, e := range ents {
		if e.Name != want[i] {
			t.Fatalf("ReadDir[%d] = %q, want %q", i, e.Name, want[i])
		}
	}
	if !ents[3].IsDir {
		t.Fatal("d should be a dir")
	}
}

func TestRemoveSemantics(t *testing.T) {
	fs, clk := newTestFS(t, 0)
	if _, err := fs.Create(clk, "/f"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Remove(clk, "/f"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Remove(clk, "/f"); !errors.Is(err, ErrNotExist) {
		t.Fatalf("double Remove err = %v", err)
	}
	if err := fs.MkdirAll(clk, "/d/sub"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Remove(clk, "/d"); !errors.Is(err, ErrNotEmpty) {
		t.Fatalf("Remove(non-empty) err = %v", err)
	}
	if err := fs.Remove(clk, "/d/sub"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Remove(clk, "/d"); err != nil {
		t.Fatal(err)
	}
}

func TestRemoveRecyclesSpace(t *testing.T) {
	fs, clk := newTestFS(t, 1<<20)
	payload := make([]byte, 600<<10)
	f, err := fs.Create(clk, "/big")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(clk, payload, 0); err != nil {
		t.Fatal(err)
	}
	if err := fs.Remove(clk, "/big"); err != nil {
		t.Fatal(err)
	}
	// Without recycling this second write would exceed the 1 MB device.
	f2, err := fs.Create(clk, "/big2")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f2.WriteAt(clk, payload, 0); err != nil {
		t.Fatalf("space not recycled: %v", err)
	}
}

func TestWriteBeyondEOFZeroFillsHole(t *testing.T) {
	fs, clk := newTestFS(t, 0)
	f, err := fs.Create(clk, "/holes")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(clk, []byte("head"), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(clk, []byte("tail"), 100); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 104)
	if n, err := f.ReadAt(clk, buf, 0); err != nil || n != 104 {
		t.Fatalf("ReadAt = %d, %v", n, err)
	}
	if string(buf[:4]) != "head" || string(buf[100:]) != "tail" {
		t.Fatalf("content: %q ... %q", buf[:4], buf[100:])
	}
	for i := 4; i < 100; i++ {
		if buf[i] != 0 {
			t.Fatalf("hole byte %d = %#x, want 0", i, buf[i])
		}
	}
}

func TestReadAtEOF(t *testing.T) {
	fs, clk := newTestFS(t, 0)
	f, err := fs.Create(clk, "/short")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(clk, []byte("12345"), 0); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 10)
	n, err := f.ReadAt(clk, buf, 3)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 || string(buf[:n]) != "45" {
		t.Fatalf("short read = %d %q", n, buf[:n])
	}
	n, err = f.ReadAt(clk, buf, 5)
	if err != nil || n != 0 {
		t.Fatalf("read at EOF = %d, %v", n, err)
	}
}

func TestTruncateZeroesAndGrows(t *testing.T) {
	fs, clk := newTestFS(t, 0)
	f, err := fs.Create(clk, "/t")
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Truncate(clk, 1000); err != nil {
		t.Fatal(err)
	}
	if f.Size() != 1000 {
		t.Fatalf("Size = %d", f.Size())
	}
	buf := make([]byte, 1000)
	if n, err := f.ReadAt(clk, buf, 0); err != nil || n != 1000 {
		t.Fatalf("ReadAt = %d, %v", n, err)
	}
	for i, b := range buf {
		if b != 0 {
			t.Fatalf("byte %d = %#x after Truncate", i, b)
		}
	}
}

func TestCreateTruncatesExisting(t *testing.T) {
	fs, clk := newTestFS(t, 0)
	f, err := fs.Create(clk, "/re")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(clk, []byte("old content"), 0); err != nil {
		t.Fatal(err)
	}
	f2, err := fs.Create(clk, "/re")
	if err != nil {
		t.Fatal(err)
	}
	if f2.Size() != 0 {
		t.Fatalf("recreated size = %d", f2.Size())
	}
}

func TestClosedFileRejectsIO(t *testing.T) {
	fs, clk := newTestFS(t, 0)
	f, err := fs.Create(clk, "/c")
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); !errors.Is(err, ErrClosed) {
		t.Fatalf("double Close err = %v", err)
	}
	if _, err := f.WriteAt(clk, []byte("x"), 0); !errors.Is(err, ErrClosed) {
		t.Fatalf("WriteAt after close err = %v", err)
	}
	if _, err := f.ReadAt(clk, make([]byte, 1), 0); !errors.Is(err, ErrClosed) {
		t.Fatalf("ReadAt after close err = %v", err)
	}
	if err := f.Sync(clk); !errors.Is(err, ErrClosed) {
		t.Fatalf("Sync after close err = %v", err)
	}
	if _, err := f.Mmap(clk, false); !errors.Is(err, ErrClosed) {
		t.Fatalf("Mmap after close err = %v", err)
	}
}

func TestNoSpace(t *testing.T) {
	fs, clk := newTestFS(t, 1<<20)
	f, err := fs.Create(clk, "/huge")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(clk, make([]byte, 2<<20), 0); !errors.Is(err, ErrNoSpace) {
		t.Fatalf("oversize write err = %v", err)
	}
}

func TestMmapDAXAliasesDeviceAndSeesWrites(t *testing.T) {
	fs, clk := newTestFS(t, 0)
	f, err := fs.Create(clk, "/pool")
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Truncate(clk, 8192); err != nil {
		t.Fatal(err)
	}
	mp, err := f.Mmap(clk, false)
	if err != nil {
		t.Fatal(err)
	}
	if mp.Len() != 8192 {
		t.Fatalf("mapping len = %d", mp.Len())
	}
	// Store through the mapping; read back through the kernel path.
	s, err := mp.Slice(100, 5)
	if err != nil {
		t.Fatal(err)
	}
	copy(s, "maped")
	buf := make([]byte, 5)
	if _, err := f.ReadAt(clk, buf, 100); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "maped" {
		t.Fatalf("kernel path read = %q", buf)
	}
}

func TestMmapRejectsFragmentedFile(t *testing.T) {
	fs, clk := newTestFS(t, 0)
	f, err := fs.Create(clk, "/frag")
	if err != nil {
		t.Fatal(err)
	}
	// Two separate growing writes allocate two extents.
	if _, err := f.WriteAt(clk, make([]byte, 100), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(clk, make([]byte, 100), 5000); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Mmap(clk, false); !errors.Is(err, ErrFragmented) {
		t.Fatalf("Mmap(fragmented) err = %v", err)
	}
}

func TestMmapMapSyncFlag(t *testing.T) {
	fs, clk := newTestFS(t, 0)
	f, err := fs.Create(clk, "/sync")
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Truncate(clk, 4096); err != nil {
		t.Fatal(err)
	}
	mp, err := f.Mmap(clk, true)
	if err != nil {
		t.Fatal(err)
	}
	if !mp.MapSync() {
		t.Fatal("MAP_SYNC flag lost")
	}
}

func TestKernelPathCostsExceedDAX(t *testing.T) {
	fs, _ := newTestFS(t, 64<<20)
	const n = 16 << 20
	f, err := fs.Create(new(sim.Clock), "/cost")
	if err != nil {
		t.Fatal(err)
	}
	kclk := new(sim.Clock)
	if _, err := f.WriteAt(kclk, make([]byte, n), 0); err != nil {
		t.Fatal(err)
	}
	// DAX path: same bytes charged directly on the device.
	dclk := new(sim.Clock)
	fs.Device().ChargeWrite(dclk, n, false)
	if kclk.Now() <= dclk.Now() {
		t.Fatalf("kernel path %v not slower than DAX %v", kclk.Now(), dclk.Now())
	}
}

func TestSyncPersistsExtents(t *testing.T) {
	m := sim.NewMachine(sim.DefaultConfig())
	m.SetConcurrency(1)
	dev := pmem.New(m, 1<<20, pmem.WithCrashTracking())
	fs := New(dev)
	clk := new(sim.Clock)
	f, err := fs.Create(clk, "/durable")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(clk, []byte("must survive"), 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(clk); err != nil {
		t.Fatal(err)
	}
	dev.Crash(pmem.CrashLoseAll, nil)
	buf := make([]byte, 12)
	if _, err := f.ReadAt(clk, buf, 0); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "must survive" {
		t.Fatalf("after crash = %q", buf)
	}
}

// Property: random writes then reads through the kernel path behave like an
// in-memory reference buffer.
func TestQuickFileMatchesReference(t *testing.T) {
	fs, clk := newTestFS(t, 32<<20)
	f, err := fs.Create(clk, "/ref")
	if err != nil {
		t.Fatal(err)
	}
	const maxFile = 1 << 16
	ref := make([]byte, maxFile)
	var refSize int64
	rng := rand.New(rand.NewSource(17))

	op := func(rawOff uint16, rawLen uint8) bool {
		off := int64(rawOff) % (maxFile / 2)
		length := int64(rawLen)%512 + 1
		data := make([]byte, length)
		rng.Read(data)
		if _, err := f.WriteAt(clk, data, off); err != nil {
			return false
		}
		copy(ref[off:], data)
		if off+length > refSize {
			refSize = off + length
		}
		if f.Size() != refSize {
			return false
		}
		// Read back a random window.
		roff := int64(rawLen) * 7 % (refSize + 1)
		buf := make([]byte, 700)
		n, err := f.ReadAt(clk, buf, roff)
		if err != nil {
			return false
		}
		want := refSize - roff
		if want > 700 {
			want = 700
		}
		if int64(n) != want {
			return false
		}
		return bytes.Equal(buf[:n], ref[roff:roff+int64(n)])
	}
	if err := quick.Check(op, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestManyFilesConcurrent(t *testing.T) {
	fs, _ := newTestFS(t, 64<<20)
	const workers = 8
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			clk := new(sim.Clock)
			for i := 0; i < 20; i++ {
				name := fmt.Sprintf("/w%d-f%d", w, i)
				f, err := fs.Create(clk, name)
				if err != nil {
					errs <- err
					return
				}
				payload := bytes.Repeat([]byte{byte(w*32 + i)}, 4096)
				if _, err := f.WriteAt(clk, payload, 0); err != nil {
					errs <- err
					return
				}
				got := make([]byte, 4096)
				if _, err := f.ReadAt(clk, got, 0); err != nil {
					errs <- err
					return
				}
				if !bytes.Equal(got, payload) {
					errs <- fmt.Errorf("%s: payload mismatch", name)
					return
				}
			}
			errs <- nil
		}(w)
	}
	for w := 0; w < workers; w++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

// TestRecycledExtentReadsZeros poisons a file's extent, removes the file and
// sizes a new one over the recycled extent. Each way to read the new file —
// its DAX mapping, the kernel read path, and a mapping read after a partial
// kernel write into an unwritten granule — must see zeros, never the old
// file's bytes. No eager memclr stands behind this: Truncate zeroes at most
// the partial granule at its edge, and the device zeroes the rest at first
// touch.
func TestRecycledExtentReadsZeros(t *testing.T) {
	const size = 4*pmem.GranuleSize + 4096
	for _, how := range []string{"Mmap", "ReadAt", "WriteAt+Mmap"} {
		t.Run(how, func(t *testing.T) {
			fs, clk := newTestFS(t, 1<<20)
			old, err := fs.Create(clk, "/old")
			if err != nil {
				t.Fatal(err)
			}
			if _, err := old.WriteAt(clk, bytes.Repeat([]byte{0xA5}, size), 0); err != nil {
				t.Fatal(err)
			}
			if err := fs.Remove(clk, "/old"); err != nil {
				t.Fatal(err)
			}
			zeroed := fs.Device().Counters().ZeroedBytes
			f, err := fs.Create(clk, "/new")
			if err != nil {
				t.Fatal(err)
			}
			if err := f.Truncate(clk, size); err != nil {
				t.Fatal(err)
			}
			if got := fs.Device().Counters().ZeroedBytes - zeroed; got >= pmem.GranuleSize {
				t.Fatalf("Truncate zeroed %d bytes; only the partial edge granule should be", got)
			}
			got := make([]byte, size)
			switch how {
			case "ReadAt":
				if _, err := f.ReadAt(clk, got, 0); err != nil {
					t.Fatal(err)
				}
			case "WriteAt+Mmap":
				if _, err := f.WriteAt(clk, []byte("mid"), pmem.GranuleSize+100); err != nil {
					t.Fatal(err)
				}
				fallthrough
			case "Mmap":
				m, err := f.Mmap(clk, false)
				if err != nil {
					t.Fatal(err)
				}
				s, err := m.Slice(0, size)
				if err != nil {
					t.Fatal(err)
				}
				copy(got, s)
			}
			if how == "WriteAt+Mmap" {
				if string(got[pmem.GranuleSize+100:pmem.GranuleSize+103]) != "mid" {
					t.Fatal("the partial write was lost")
				}
			}
			if i := bytes.IndexByte(got, 0xA5); i >= 0 {
				t.Fatalf("byte %d of the new file is the removed file's", i)
			}
		})
	}
}
