package mpi

import (
	"testing"

	"pmemcpy/internal/sim"
)

// benchWorld runs fn once across n ranks per benchmark iteration.
func benchWorld(b *testing.B, n int, fn func(c *Comm) error) {
	b.Helper()
	m := sim.NewMachine(sim.DefaultConfig())
	m.SetConcurrency(n)
	for i := 0; i < b.N; i++ {
		if _, err := Run(m, n, fn); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBarrier measures the wall cost of the rendezvous primitive (the
// building block of every collective).
func BenchmarkBarrier(b *testing.B) {
	for _, n := range []int{4, 16, 48} {
		b.Run(sizeName(n), func(b *testing.B) {
			benchWorld(b, n, func(c *Comm) error {
				for r := 0; r < 10; r++ {
					if err := c.Barrier(); err != nil {
						return err
					}
				}
				return nil
			})
		})
	}
}

// BenchmarkAllgather measures the metadata-exchange collective used by every
// collective I/O call.
func BenchmarkAllgather(b *testing.B) {
	payload := make([]byte, 1024)
	benchWorld(b, 16, func(c *Comm) error {
		_, err := c.AllgatherVol(payload, -1)
		return err
	})
}

// BenchmarkAlltoall measures the rearrangement primitive with 64 KB per
// destination.
func BenchmarkAlltoall(b *testing.B) {
	const n = 8
	parts := make([][]byte, n)
	for i := range parts {
		parts[i] = make([]byte, 64<<10)
	}
	b.SetBytes(int64(n * 64 << 10))
	benchWorld(b, n, func(c *Comm) error {
		_, err := c.AlltoallVol(parts, -1)
		return err
	})
}

// BenchmarkSendRecv measures point-to-point throughput between two ranks.
func BenchmarkSendRecv(b *testing.B) {
	payload := make([]byte, 256<<10)
	b.SetBytes(int64(len(payload)))
	benchWorld(b, 2, func(c *Comm) error {
		if c.Rank() == 0 {
			return c.Send(1, 0, payload)
		}
		_, err := c.Recv(0, 0)
		return err
	})
}

func sizeName(n int) string {
	return map[int]string{4: "ranks=4", 16: "ranks=16", 48: "ranks=48"}[n]
}
