package core

import (
	"pmemcpy/internal/mpi"
	"pmemcpy/internal/node"
	"pmemcpy/internal/obs"
	"pmemcpy/internal/pio"
)

// Library adapts pMEMCPY to the common pio.Library interface so the
// experiment harness can drive it next to the baselines. It is an Options
// value — every knob is declared there, once — with the pio methods on it.
// The paper's two evaluated configurations are:
//
//	Library{}              -> "PMCPY-A" (MAP_SYNC disabled)
//	Library{MapSync: true} -> "PMCPY-B" (MAP_SYNC enabled)
type Library Options

// Name implements pio.Library.
func (l Library) Name() string {
	if l.MapSync {
		return "PMCPY-B"
	}
	return "PMCPY-A"
}

// OpenWrite implements pio.Library.
func (l Library) OpenWrite(c *mpi.Comm, n *node.Node, path string) (pio.Writer, error) {
	p, err := Mmap(c, n, path, optionsOption(l))
	if err != nil {
		return nil, err
	}
	return &session{p: p}, nil
}

// OpenRead implements pio.Library.
func (l Library) OpenRead(c *mpi.Comm, n *node.Node, path string) (pio.Reader, error) {
	p, err := Mmap(c, n, path, optionsOption(l))
	if err != nil {
		return nil, err
	}
	return &session{p: p}, nil
}

// session implements both pio.Writer and pio.Reader over one PMEM handle —
// pMEMCPY has no separate define/write/read modes, which is exactly the API
// simplification the paper argues for.
type session struct {
	p *PMEM
}

// DefineVar implements pio.Writer via Alloc (dims land under name+"#dims").
func (s *session) DefineVar(v pio.Var) error {
	if err := v.Validate(); err != nil {
		return err
	}
	return s.p.Alloc(v.Name, v.Type, v.GlobalDims)
}

// Write implements pio.Writer. On an async handle the write is submitted to
// the pipeline and the call returns immediately; commit errors surface
// through Close's drain (the pio contract: the dataset is durable once Close
// returns nil).
func (s *session) Write(name string, offs, counts []uint64, data []byte) error {
	if s.p.AsyncEnabled() {
		// pio.Writer lets the caller reuse data once Write returns, but a
		// queued submission reads its buffer at commit time — snapshot it.
		// (StoreBlockAsync's own contract pins the buffer until the Future
		// completes; that contract cannot be pushed through pio.)
		s.p.StoreBlockAsync(name, offs, counts, append([]byte(nil), data...))
		return nil
	}
	return s.p.StoreBlock(name, offs, counts, data)
}

// Dims implements pio.Reader.
func (s *session) Dims(name string) ([]uint64, error) {
	_, dims, err := s.p.LoadDims(name)
	return dims, err
}

// Read implements pio.Reader.
func (s *session) Read(name string, offs, counts []uint64, dst []byte) error {
	return s.p.LoadBlock(name, offs, counts, dst)
}

// Close implements pio.Writer and pio.Reader.
func (s *session) Close() error {
	return s.p.Munmap()
}

// Metrics implements pio.Instrumented.
func (s *session) Metrics() obs.Snapshot { return s.p.Metrics() }

var (
	_ pio.Writer       = (*session)(nil)
	_ pio.Reader       = (*session)(nil)
	_ pio.Instrumented = (*session)(nil)
	_ pio.Library      = Library{}
)

// Handle returns the underlying PMEM for callers that need the full API.
func (s *session) Handle() *PMEM { return s.p }
