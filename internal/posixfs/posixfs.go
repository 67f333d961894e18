// Package posixfs implements the node-local filesystem layer under the
// baseline PIO libraries: an ext4-DAX-style filesystem living on the emulated
// PMEM device.
//
// It captures the two properties the paper's argument rests on:
//
//   - the kernel path (read/write) copies data between application buffers
//     and storage through the page cache and crosses the kernel on every
//     call, charging syscall, DRAM-copy and device costs; while
//   - the DAX path (Mmap) exposes the file's PMEM directly with zero copies,
//     optionally with MAP_SYNC semantics.
//
// Metadata (the namespace tree) is kept in DRAM like a mounted filesystem's
// dentry cache; file *data* lives on the device. Crash-persistence of
// namespace metadata is out of scope here — the pmdk package owns the
// crash-consistency story, matching how pMEMCPY itself only relies on PMDK
// for consistency.
package posixfs

import (
	"errors"
	"fmt"
	"path"
	"sort"
	"strings"
	"sync"

	"pmemcpy/internal/pmem"
	"pmemcpy/internal/sim"
)

// ptSync names the fsync persist point of the kernel I/O path.
var ptSync = pmem.RegisterPoint("posixfs.sync")

// Filesystem errors, matching POSIX semantics.
var (
	ErrNotExist   = errors.New("posixfs: no such file or directory")
	ErrExist      = errors.New("posixfs: file exists")
	ErrIsDir      = errors.New("posixfs: is a directory")
	ErrNotDir     = errors.New("posixfs: not a directory")
	ErrNotEmpty   = errors.New("posixfs: directory not empty")
	ErrNoSpace    = errors.New("posixfs: no space left on device")
	ErrClosed     = errors.New("posixfs: file already closed")
	ErrFragmented = errors.New("posixfs: file not contiguous; mmap requires a contiguous extent")
)

// extent is a contiguous device range backing part of a file.
type extent struct{ off, n int64 }

// FS is a filesystem over an entire pmem device.
type FS struct {
	dev *pmem.Device

	mu   sync.RWMutex
	root *dirNode

	amu  sync.Mutex
	bump int64
	free []extent // recycled extents, first-fit
}

type node interface{ isNode() }

type dirNode struct {
	children map[string]node
}

func (*dirNode) isNode() {}

type fileNode struct {
	mu      sync.RWMutex
	extents []extent
	size    int64
}

func (*fileNode) isNode() {}

// New creates a filesystem owning all of dev.
func New(dev *pmem.Device) *FS {
	return &FS{
		dev:  dev,
		root: &dirNode{children: make(map[string]node)},
	}
}

// Device returns the backing device.
func (fs *FS) Device() *pmem.Device { return fs.dev }

// chargeSyscall accounts one kernel crossing.
func (fs *FS) chargeSyscall(clk *sim.Clock) { fs.dev.Machine().ChargeSyscall(clk) }

// allocExtent reserves n device bytes (cacheline-aligned).
func (fs *FS) allocExtent(n int64) (extent, error) {
	n = (n + sim.CachelineSize - 1) &^ (sim.CachelineSize - 1)
	fs.amu.Lock()
	defer fs.amu.Unlock()
	for i, e := range fs.free {
		if e.n >= n {
			got := extent{e.off, n}
			if e.n > n {
				fs.free[i] = extent{e.off + n, e.n - n}
			} else {
				fs.free = append(fs.free[:i], fs.free[i+1:]...)
			}
			return got, nil
		}
	}
	if fs.bump+n > fs.dev.Size() {
		return extent{}, fmt.Errorf("%w: need %d, %d free", ErrNoSpace, n, fs.dev.Size()-fs.bump)
	}
	e := extent{fs.bump, n}
	fs.bump += n
	return e, nil
}

func (fs *FS) freeExtents(exts []extent) {
	fs.amu.Lock()
	fs.free = append(fs.free, exts...)
	fs.amu.Unlock()
}

// splitPath cleans p and returns its components; "/" yields nil.
func splitPath(p string) ([]string, error) {
	cp := path.Clean("/" + p)
	if cp == "/" {
		return nil, nil
	}
	return strings.Split(cp[1:], "/"), nil
}

// walk resolves the directory containing the last element of parts.
// The caller must hold fs.mu.
func (fs *FS) walkLocked(parts []string) (*dirNode, string, error) {
	if len(parts) == 0 {
		return nil, "", fmt.Errorf("%w: root", ErrIsDir)
	}
	d := fs.root
	for _, comp := range parts[:len(parts)-1] {
		child, ok := d.children[comp]
		if !ok {
			return nil, "", fmt.Errorf("%w: %s", ErrNotExist, comp)
		}
		sub, ok := child.(*dirNode)
		if !ok {
			return nil, "", fmt.Errorf("%w: %s", ErrNotDir, comp)
		}
		d = sub
	}
	return d, parts[len(parts)-1], nil
}

// Mkdir creates a single directory.
func (fs *FS) Mkdir(clk *sim.Clock, p string) error {
	fs.chargeSyscall(clk)
	parts, err := splitPath(p)
	if err != nil {
		return err
	}
	if parts == nil {
		return fmt.Errorf("%w: /", ErrExist)
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	d, name, err := fs.walkLocked(parts)
	if err != nil {
		return err
	}
	if _, ok := d.children[name]; ok {
		return fmt.Errorf("%w: %s", ErrExist, p)
	}
	d.children[name] = &dirNode{children: make(map[string]node)}
	return nil
}

// MkdirAll creates p and any missing parents.
func (fs *FS) MkdirAll(clk *sim.Clock, p string) error {
	fs.chargeSyscall(clk)
	parts, err := splitPath(p)
	if err != nil {
		return err
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	d := fs.root
	for _, comp := range parts {
		child, ok := d.children[comp]
		if !ok {
			nd := &dirNode{children: make(map[string]node)}
			d.children[comp] = nd
			d = nd
			continue
		}
		sub, ok := child.(*dirNode)
		if !ok {
			return fmt.Errorf("%w: %s", ErrNotDir, comp)
		}
		d = sub
	}
	return nil
}

// lookup returns the node at p. The caller must hold fs.mu (read) .
func (fs *FS) lookupLocked(p string) (node, error) {
	parts, err := splitPath(p)
	if err != nil {
		return nil, err
	}
	if parts == nil {
		return fs.root, nil
	}
	d, name, err := fs.walkLocked(parts)
	if err != nil {
		return nil, err
	}
	n, ok := d.children[name]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotExist, p)
	}
	return n, nil
}

// FileInfo describes a file or directory.
type FileInfo struct {
	Name  string
	Size  int64
	IsDir bool
}

// Stat returns information about the node at p.
func (fs *FS) Stat(clk *sim.Clock, p string) (FileInfo, error) {
	fs.chargeSyscall(clk)
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	n, err := fs.lookupLocked(p)
	if err != nil {
		return FileInfo{}, err
	}
	base := path.Base(path.Clean("/" + p))
	switch v := n.(type) {
	case *dirNode:
		return FileInfo{Name: base, IsDir: true}, nil
	case *fileNode:
		v.mu.RLock()
		defer v.mu.RUnlock()
		return FileInfo{Name: base, Size: v.size}, nil
	}
	return FileInfo{}, fmt.Errorf("posixfs: unknown node type at %s", p)
}

// ReadDir lists the entries of directory p in name order.
func (fs *FS) ReadDir(clk *sim.Clock, p string) ([]FileInfo, error) {
	fs.chargeSyscall(clk)
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	n, err := fs.lookupLocked(p)
	if err != nil {
		return nil, err
	}
	d, ok := n.(*dirNode)
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotDir, p)
	}
	names := make([]string, 0, len(d.children))
	for name := range d.children {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]FileInfo, 0, len(names))
	for _, name := range names {
		switch v := d.children[name].(type) {
		case *dirNode:
			out = append(out, FileInfo{Name: name, IsDir: true})
		case *fileNode:
			v.mu.RLock()
			out = append(out, FileInfo{Name: name, Size: v.size})
			v.mu.RUnlock()
		}
	}
	return out, nil
}

// Remove deletes a file or empty directory and recycles its extents.
func (fs *FS) Remove(clk *sim.Clock, p string) error {
	fs.chargeSyscall(clk)
	parts, err := splitPath(p)
	if err != nil {
		return err
	}
	if parts == nil {
		return fmt.Errorf("%w: cannot remove /", ErrIsDir)
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	d, name, err := fs.walkLocked(parts)
	if err != nil {
		return err
	}
	n, ok := d.children[name]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotExist, p)
	}
	if sub, ok := n.(*dirNode); ok {
		if len(sub.children) > 0 {
			return fmt.Errorf("%w: %s", ErrNotEmpty, p)
		}
	} else if f, ok := n.(*fileNode); ok {
		f.mu.Lock()
		fs.freeExtents(f.extents)
		f.extents = nil
		f.size = 0
		f.mu.Unlock()
	}
	delete(d.children, name)
	return nil
}

// File is an open file handle.
type File struct {
	fs     *FS
	node   *fileNode
	name   string
	closed bool
}

// Create creates (or truncates) the file at p and opens it.
func (fs *FS) Create(clk *sim.Clock, p string) (*File, error) {
	fs.chargeSyscall(clk)
	parts, err := splitPath(p)
	if err != nil {
		return nil, err
	}
	if parts == nil {
		return nil, fmt.Errorf("%w: /", ErrIsDir)
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	d, name, err := fs.walkLocked(parts)
	if err != nil {
		return nil, err
	}
	if existing, ok := d.children[name]; ok {
		f, ok := existing.(*fileNode)
		if !ok {
			return nil, fmt.Errorf("%w: %s", ErrIsDir, p)
		}
		f.mu.Lock()
		fs.freeExtents(f.extents)
		f.extents = nil
		f.size = 0
		f.mu.Unlock()
		return &File{fs: fs, node: f, name: p}, nil
	}
	f := &fileNode{}
	d.children[name] = f
	return &File{fs: fs, node: f, name: p}, nil
}

// Open opens an existing file at p.
func (fs *FS) Open(clk *sim.Clock, p string) (*File, error) {
	fs.chargeSyscall(clk)
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	n, err := fs.lookupLocked(p)
	if err != nil {
		return nil, err
	}
	f, ok := n.(*fileNode)
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrIsDir, p)
	}
	return &File{fs: fs, node: f, name: p}, nil
}

// Name returns the path the file was opened with.
func (f *File) Name() string { return f.name }

// Size returns the file's current size.
func (f *File) Size() int64 {
	f.node.mu.RLock()
	defer f.node.mu.RUnlock()
	return f.node.size
}

// Close closes the handle. Further I/O fails with ErrClosed.
func (f *File) Close() error {
	if f.closed {
		return ErrClosed
	}
	f.closed = true
	return nil
}

// ensureLocked grows the file's extent list to cover size bytes. The node
// lock must be held.
func (f *File) ensureLocked(size int64) error {
	var have int64
	for _, e := range f.node.extents {
		have += e.n
	}
	if size <= have {
		return nil
	}
	e, err := f.fs.allocExtent(size - have)
	if err != nil {
		return err
	}
	f.node.extents = append(f.node.extents, e)
	return nil
}

// Truncate sets the file size, allocating backing space as needed. Newly
// exposed bytes are unwritten extents and read as zeros (POSIX semantics).
func (f *File) Truncate(clk *sim.Clock, size int64) error {
	if f.closed {
		return ErrClosed
	}
	f.fs.chargeSyscall(clk)
	f.node.mu.Lock()
	defer f.node.mu.Unlock()
	old := f.node.size
	if err := f.ensureLocked(size); err != nil {
		return err
	}
	if size > old {
		if err := f.zeroRangeLocked(old, size-old); err != nil {
			return err
		}
	}
	f.node.size = size
	return nil
}

// zeroRangeLocked makes [off, off+n) of the file read as zeros, the way a
// real filesystem exposes a hole or a newly sized file: as unwritten extents.
// The device discards the range's whole granules and zeroes them at their
// first touch, so only the partial granules at the range's edges are cleared
// here, and no media traffic is charged. Recycled extents may hold stale
// bytes; no access can see them. Explicit fill-value writes, e.g. NetCDF fill
// mode, go through WriteAt and are charged like any other data.
func (f *File) zeroRangeLocked(off, n int64) error {
	return f.mapRange(off, n, func(devOff, length, _ int64) error {
		return f.fs.dev.Discard(devOff, length)
	})
}

// mapRange iterates the device ranges backing [off, off+n).
func (f *File) mapRange(off, n int64, fn func(devOff int64, length int64, fileOff int64) error) error {
	var pos int64
	fileOff := off
	remaining := n
	for _, e := range f.node.extents {
		if remaining <= 0 {
			break
		}
		extEnd := pos + e.n
		if fileOff < extEnd {
			inExt := fileOff - pos
			length := min(remaining, e.n-inExt)
			if err := fn(e.off+inExt, length, fileOff); err != nil {
				return err
			}
			fileOff += length
			remaining -= length
		}
		pos = extEnd
	}
	if remaining > 0 {
		return fmt.Errorf("posixfs: range [%d,%d) beyond backing extents", off, off+n)
	}
	return nil
}

func (f *File) pwriteLocked(clk *sim.Clock, p []byte, off int64) error {
	return f.mapRange(off, int64(len(p)), func(devOff, length, fileOff int64) error {
		src := p[fileOff-off : fileOff-off+length]
		_, err := f.fs.dev.WriteAt(clk, src, devOff)
		return err
	})
}

// WriteAt writes p at offset off through the kernel path: one syscall, a
// page-cache copy (DRAM pool), and the device write. The file grows as
// needed.
func (f *File) WriteAt(clk *sim.Clock, p []byte, off int64) (int, error) {
	if f.closed {
		return 0, ErrClosed
	}
	if off < 0 {
		return 0, fmt.Errorf("posixfs: negative offset %d", off)
	}
	f.fs.chargeSyscall(clk)
	f.node.mu.Lock()
	defer f.node.mu.Unlock()
	end := off + int64(len(p))
	if err := f.ensureLocked(end); err != nil {
		return 0, err
	}
	// Writing beyond EOF leaves a hole, which reads as zeros.
	if off > f.node.size {
		if err := f.zeroRangeLocked(f.node.size, off-f.node.size); err != nil {
			return 0, err
		}
	}
	// On an ext4-DAX filesystem write() copies the user buffer straight to
	// PMEM (no page cache); the copy cost is the device write itself,
	// charged by the device layer below.
	if err := f.pwriteLocked(clk, p, off); err != nil {
		return 0, err
	}
	if end > f.node.size {
		f.node.size = end
	}
	return len(p), nil
}

// ReadAt reads into p from offset off through the kernel path. Reads at or
// beyond EOF return 0 bytes; short reads happen at EOF.
func (f *File) ReadAt(clk *sim.Clock, p []byte, off int64) (int, error) {
	if f.closed {
		return 0, ErrClosed
	}
	if off < 0 {
		return 0, fmt.Errorf("posixfs: negative offset %d", off)
	}
	f.fs.chargeSyscall(clk)
	f.node.mu.RLock()
	defer f.node.mu.RUnlock()
	if off >= f.node.size {
		return 0, nil
	}
	n := min(int64(len(p)), f.node.size-off)
	err := f.mapRange(off, n, func(devOff, length, fileOff int64) error {
		dst := p[fileOff-off : fileOff-off+length]
		_, err := f.fs.dev.ReadAt(clk, dst, devOff)
		return err
	})
	if err != nil {
		return 0, err
	}
	return int(n), nil
}

// Sync flushes the file's dirty ranges to the persistence domain (fsync).
func (f *File) Sync(clk *sim.Clock) error {
	if f.closed {
		return ErrClosed
	}
	f.fs.chargeSyscall(clk)
	f.node.mu.RLock()
	defer f.node.mu.RUnlock()
	for _, e := range f.node.extents {
		if err := f.fs.dev.Persist(clk, e.off, e.n, ptSync); err != nil {
			return err
		}
	}
	return nil
}

// Mmap maps the whole file with DAX semantics: the returned mapping aliases
// device memory directly with no page-cache copies. The file must be backed
// by a single contiguous extent (create it with Truncate on a fresh file,
// the way pool files are provisioned). mapSync selects MAP_SYNC behaviour.
func (f *File) Mmap(clk *sim.Clock, mapSync bool) (*pmem.Mapping, error) {
	if f.closed {
		return nil, ErrClosed
	}
	f.fs.chargeSyscall(clk)
	f.node.mu.RLock()
	defer f.node.mu.RUnlock()
	if len(f.node.extents) != 1 {
		return nil, fmt.Errorf("%w: %s has %d extents", ErrFragmented, f.name, len(f.node.extents))
	}
	e := f.node.extents[0]
	if f.node.size > e.n {
		return nil, fmt.Errorf("posixfs: size %d exceeds extent %d", f.node.size, e.n)
	}
	return pmem.NewMapping(f.fs.dev, e.off, f.node.size, mapSync)
}
