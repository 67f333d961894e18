package mpi

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"pmemcpy/internal/sim"
)

func testMachine() *sim.Machine {
	m := sim.NewMachine(sim.DefaultConfig())
	m.SetConcurrency(1)
	return m
}

func TestRunSpawnsAllRanks(t *testing.T) {
	seen := make([]bool, 8)
	_, err := Run(testMachine(), 8, func(c *Comm) error {
		if c.Size() != 8 {
			return fmt.Errorf("Size = %d", c.Size())
		}
		seen[c.Rank()] = true
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for r, ok := range seen {
		if !ok {
			t.Fatalf("rank %d never ran", r)
		}
	}
}

func TestRunRejectsBadSize(t *testing.T) {
	if _, err := Run(testMachine(), 0, func(*Comm) error { return nil }); err == nil {
		t.Fatal("Run(0) did not fail")
	}
}

func TestRunReturnsPerRankTimes(t *testing.T) {
	times, err := Run(testMachine(), 4, func(c *Comm) error {
		c.Clock().Advance(time.Duration(c.Rank()+1) * time.Second)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for r, d := range times {
		if want := time.Duration(r+1) * time.Second; d != want {
			t.Fatalf("rank %d time = %v, want %v", r, d, want)
		}
	}
}

func TestRunPropagatesError(t *testing.T) {
	sentinel := errors.New("rank failure")
	_, err := Run(testMachine(), 4, func(c *Comm) error {
		if c.Rank() == 2 {
			return sentinel
		}
		// Other ranks park in a barrier; they must unwind via ErrAborted.
		if err := c.Barrier(); err != nil && !errors.Is(err, ErrAborted) {
			return err
		}
		return nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("Run err = %v, want sentinel", err)
	}
}

func TestBarrierAlignsClocks(t *testing.T) {
	_, err := Run(testMachine(), 6, func(c *Comm) error {
		c.Clock().Advance(time.Duration(c.Rank()) * time.Second)
		if err := c.Barrier(); err != nil {
			return err
		}
		// Every clock must now be at least the slowest rank's 5s.
		if now := c.Clock().Now(); now < 5*time.Second {
			return fmt.Errorf("rank %d clock %v after barrier", c.Rank(), now)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBarrierReusable(t *testing.T) {
	const rounds = 20
	_, err := Run(testMachine(), 5, func(c *Comm) error {
		for i := 0; i < rounds; i++ {
			c.Clock().Advance(time.Duration(c.Rank()) * time.Millisecond)
			if err := c.Barrier(); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSendRecv(t *testing.T) {
	_, err := Run(testMachine(), 2, func(c *Comm) error {
		if c.Rank() == 0 {
			return c.Send(1, 7, []byte("payload"))
		}
		got, err := c.Recv(0, 7)
		if err != nil {
			return err
		}
		if string(got) != "payload" {
			return fmt.Errorf("Recv = %q", got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSendCopiesData(t *testing.T) {
	_, err := Run(testMachine(), 2, func(c *Comm) error {
		if c.Rank() == 0 {
			buf := []byte("immutable")
			if err := c.Send(1, 0, buf); err != nil {
				return err
			}
			buf[0] = 'X' // must not affect the receiver
			return nil
		}
		got, err := c.Recv(0, 0)
		if err != nil {
			return err
		}
		if string(got) != "immutable" {
			return fmt.Errorf("Recv saw sender mutation: %q", got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRecvSyncsClockToSender(t *testing.T) {
	_, err := Run(testMachine(), 2, func(c *Comm) error {
		if c.Rank() == 0 {
			c.Clock().Advance(10 * time.Second)
			return c.Send(1, 0, []byte("late message"))
		}
		if _, err := c.Recv(0, 0); err != nil {
			return err
		}
		if now := c.Clock().Now(); now < 10*time.Second {
			return fmt.Errorf("receiver clock %v, want >= 10s", now)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSendRecvInvalidRank(t *testing.T) {
	_, err := Run(testMachine(), 2, func(c *Comm) error {
		if c.Rank() == 0 {
			if err := c.Send(5, 0, nil); err == nil {
				return errors.New("Send(5) accepted")
			}
			if _, err := c.Recv(-1, 0); err == nil {
				return errors.New("Recv(-1) accepted")
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBcast(t *testing.T) {
	_, err := Run(testMachine(), 5, func(c *Comm) error {
		var data []byte
		if c.Rank() == 2 {
			data = []byte("from root 2")
		}
		got, err := c.Bcast(2, data)
		if err != nil {
			return err
		}
		if string(got) != "from root 2" {
			return fmt.Errorf("rank %d Bcast = %q", c.Rank(), got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestGather(t *testing.T) {
	_, err := Run(testMachine(), 4, func(c *Comm) error {
		mine := []byte{byte(c.Rank() * 10)}
		got, err := c.Gather(0, mine)
		if err != nil {
			return err
		}
		if c.Rank() != 0 {
			if got != nil {
				return fmt.Errorf("non-root got %v", got)
			}
			return nil
		}
		for r := 0; r < 4; r++ {
			if len(got[r]) != 1 || got[r][0] != byte(r*10) {
				return fmt.Errorf("Gather[%d] = %v", r, got[r])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllgather(t *testing.T) {
	_, err := Run(testMachine(), 4, func(c *Comm) error {
		got, err := c.AllgatherVol([]byte(fmt.Sprintf("r%d", c.Rank())), -1)
		if err != nil {
			return err
		}
		for r := 0; r < 4; r++ {
			if string(got[r]) != fmt.Sprintf("r%d", r) {
				return fmt.Errorf("Allgather[%d] = %q at rank %d", r, got[r], c.Rank())
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestScatter(t *testing.T) {
	_, err := Run(testMachine(), 4, func(c *Comm) error {
		var parts [][]byte
		if c.Rank() == 1 {
			for r := 0; r < 4; r++ {
				parts = append(parts, []byte{byte(r + 100)})
			}
		}
		got, err := c.Scatter(1, parts)
		if err != nil {
			return err
		}
		if len(got) != 1 || got[0] != byte(c.Rank()+100) {
			return fmt.Errorf("rank %d Scatter = %v", c.Rank(), got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestScatterWrongPartCount(t *testing.T) {
	_, err := Run(testMachine(), 2, func(c *Comm) error {
		var parts [][]byte
		if c.Rank() == 0 {
			parts = [][]byte{{1}} // wrong: needs 2
		}
		_, err := c.Scatter(0, parts)
		if c.Rank() == 0 {
			if err == nil {
				return errors.New("Scatter accepted wrong part count")
			}
			// Propagate so the world aborts and rank 1 unwinds from the
			// rendezvous it entered alone.
			return err
		}
		if err != nil && !errors.Is(err, ErrAborted) {
			return err
		}
		return nil
	})
	// Rank 0's validation error surfaces through Run.
	if err == nil || errors.Is(err, ErrAborted) {
		t.Fatalf("err = %v, want Scatter validation error", err)
	}
}

func TestAlltoallExchangesCorrectly(t *testing.T) {
	const n = 5
	_, err := Run(testMachine(), n, func(c *Comm) error {
		parts := make([][]byte, n)
		for dst := 0; dst < n; dst++ {
			parts[dst] = []byte(fmt.Sprintf("%d->%d", c.Rank(), dst))
		}
		got, err := c.AlltoallVol(parts, -1)
		if err != nil {
			return err
		}
		for src := 0; src < n; src++ {
			want := fmt.Sprintf("%d->%d", src, c.Rank())
			if string(got[src]) != want {
				return fmt.Errorf("rank %d got[%d] = %q, want %q", c.Rank(), src, got[src], want)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllreduce(t *testing.T) {
	_, err := Run(testMachine(), 6, func(c *Comm) error {
		sum, err := c.AllreduceU64(uint64(c.Rank()+1), OpSum)
		if err != nil {
			return err
		}
		if sum != 21 {
			return fmt.Errorf("sum = %d, want 21", sum)
		}
		mx, err := c.AllreduceU64(uint64(c.Rank()), OpMax)
		if err != nil {
			return err
		}
		if mx != 5 {
			return fmt.Errorf("max = %d, want 5", mx)
		}
		mn, err := c.AllreduceU64(uint64(c.Rank()+3), OpMin)
		if err != nil {
			return err
		}
		if mn != 3 {
			return fmt.Errorf("min = %d, want 3", mn)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestExscan(t *testing.T) {
	_, err := Run(testMachine(), 5, func(c *Comm) error {
		// Rank r contributes r+1; exclusive prefix: 0,1,3,6,10.
		got, err := c.ExscanU64(uint64(c.Rank() + 1))
		if err != nil {
			return err
		}
		want := uint64(c.Rank() * (c.Rank() + 1) / 2)
		if got != want {
			return fmt.Errorf("rank %d Exscan = %d, want %d", c.Rank(), got, want)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTransferChargesNetPool(t *testing.T) {
	m := testMachine()
	m.SetConcurrency(1)
	times, err := Run(m, 2, func(c *Comm) error {
		if c.Rank() == 0 {
			// 25 GB at 25 GB/s = 1 s.
			return c.Send(1, 0, make([]byte, 25_000_000))
		}
		_, err := c.Recv(0, 0)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	// Sender time ~ 1 ms for 25 MB at 25 GB/s, plus latency.
	if times[0] < time.Millisecond {
		t.Fatalf("sender time %v, want >= 1ms", times[0])
	}
}

func TestCollectiveDeterminism(t *testing.T) {
	run := func() []time.Duration {
		m := testMachine()
		times, err := Run(m, 8, func(c *Comm) error {
			c.Clock().Advance(time.Duration(c.Rank()) * 3 * time.Millisecond)
			if err := c.Barrier(); err != nil {
				return err
			}
			data := bytes.Repeat([]byte{byte(c.Rank())}, 1000)
			if _, err := c.AllgatherVol(data, -1); err != nil {
				return err
			}
			_, err := c.AllreduceU64(1, OpSum)
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		return times
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic virtual times: run1[%d]=%v run2[%d]=%v", i, a[i], i, b[i])
		}
	}
}
