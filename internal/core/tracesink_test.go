package core

import (
	"fmt"
	"testing"

	"pmemcpy/internal/bytesview"
	"pmemcpy/internal/mpi"
	"pmemcpy/internal/node"
	"pmemcpy/internal/serial"
	"pmemcpy/internal/sim"
)

// TestMunmapRemovesTraceSink: a traced handle group's tracer is the devices'
// event sink only while the group is mapped. Munmap removes it — unless a
// later traced group already replaced it, whose attribution must go on
// undisturbed — so an untraced handle opened afterwards on the same node
// delivers no event to a dead tracer, and TraceSpans still answers after
// Munmap.
func TestMunmapRemovesTraceSink(t *testing.T) {
	n := node.New(sim.DefaultConfig(), 64<<20)
	n.Machine.SetConcurrency(1)
	scalar := &serial.Datum{Type: serial.Int64, Payload: bytesview.Bytes([]int64{7})}
	_, err := mpi.Run(n.Machine, 1, func(c *mpi.Comm) error {
		mmap := func(path string, traced bool) (*PMEM, error) {
			return Mmap(c, n, path, optionsOption(Options{Tracing: traced, PoolSize: 8 << 20}))
		}
		a, err := mmap("/a.pool", true)
		if err != nil {
			return err
		}
		if err := a.StoreDatum("x", scalar); err != nil {
			return err
		}
		b, err := mmap("/b.pool", true) // replaces a's tracer as the sink
		if err != nil {
			return err
		}
		if err := a.Munmap(); err != nil {
			return err
		}
		if err := b.StoreDatum("x", scalar); err != nil {
			return err
		}
		spans := b.TraceSpans()
		if len(spans) == 0 || len(spans[len(spans)-1].Points) == 0 {
			return fmt.Errorf("unmapping the first traced group cut the second off the device: spans %+v", spans)
		}
		if err := b.Munmap(); err != nil {
			return err
		}
		if len(a.TraceSpans()) == 0 || len(b.TraceSpans()) != len(spans) {
			return fmt.Errorf("TraceSpans after Munmap: %d and %d spans, want > 0 and %d",
				len(a.TraceSpans()), len(b.TraceSpans()), len(spans))
		}
		orphans := a.st.ins.tracer.OrphanPoints() + b.st.ins.tracer.OrphanPoints()
		plain, err := mmap("/c.pool", false)
		if err != nil {
			return err
		}
		for i := 0; i < 100; i++ {
			if err := plain.StoreDatum("x", scalar); err != nil {
				return err
			}
		}
		if got := a.st.ins.tracer.OrphanPoints() + b.st.ins.tracer.OrphanPoints(); got != orphans {
			return fmt.Errorf("an untraced handle delivered %d device events to unmapped groups' tracers", got-orphans)
		}
		return plain.Munmap()
	})
	if err != nil {
		t.Fatal(err)
	}
}
