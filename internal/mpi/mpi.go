// Package mpi provides the message-passing substrate of the reproduction:
// in-process ranks (goroutines) with communicators, point-to-point messaging
// and the collectives the parallel I/O libraries need (barrier, bcast,
// gather, scatter, allgather, alltoall, allreduce, exclusive scan).
//
// The paper's evaluation is single-node, so MPI traffic is shared-memory
// traffic; every transfer is a real Go copy charged against the machine's
// interconnect pool in virtual time. Collectives also synchronize the ranks'
// virtual clocks, which is how bulk-synchronous phase times become
// max-over-ranks, matching how the paper measures wall-clock from file open
// to close.
package mpi

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"pmemcpy/internal/sim"
)

// ErrAborted is returned from collectives when another rank exited with an
// error, so the remaining ranks unwind instead of deadlocking.
var ErrAborted = errors.New("mpi: world aborted by another rank")

// World is one parallel run: n ranks sharing a machine model.
type World struct {
	machine *sim.Machine
	size    int

	mu       sync.Mutex
	cond     *sync.Cond
	failed   bool
	gen      int
	arrived  int
	slots    []any
	times    []time.Duration
	maxClock time.Duration

	// release/releaseMax are the published snapshot of the last completed
	// generation. Overwriting them is safe: the last arriver of generation
	// G+1 can only run once every waiter of generation G has read them and
	// left (all N ranks must arrive at G+1 first).
	release    []any
	releaseMax time.Duration

	mailMu sync.Mutex
	mail   map[mailKey]chan message
}

type mailKey struct{ src, dst int }

type message struct {
	data []byte
	tag  int
	at   time.Duration // sender's virtual time when the copy completed
}

// Comm is one rank's handle on the world (the MPI_COMM_WORLD analogue).
type Comm struct {
	w    *World
	rank int
	clk  *sim.Clock
}

// Run spawns n ranks, each executing fn with its own communicator and
// virtual clock, and waits for all of them. The returned durations are the
// ranks' final clock values. If any rank returns an error, Run returns the
// first one (by rank order) after all ranks have unwound.
func Run(machine *sim.Machine, n int, fn func(c *Comm) error) ([]time.Duration, error) {
	if n <= 0 {
		return nil, fmt.Errorf("mpi: world size must be positive, got %d", n)
	}
	w := &World{
		machine: machine,
		size:    n,
		slots:   make([]any, n),
		times:   make([]time.Duration, n),
		mail:    make(map[mailKey]chan message),
	}
	w.cond = sync.NewCond(&w.mu)

	errs := make([]error, n)
	var wg sync.WaitGroup
	for r := 0; r < n; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			c := &Comm{w: w, rank: rank, clk: &sim.Clock{Rank: rank}}
			if err := fn(c); err != nil {
				errs[rank] = err
				w.abort()
			}
			w.mu.Lock()
			w.times[rank] = c.clk.Now()
			w.mu.Unlock()
		}(r)
	}
	wg.Wait()
	times := append([]time.Duration(nil), w.times...)
	for _, err := range errs {
		if err != nil {
			return times, err
		}
	}
	return times, nil
}

// abort marks the world failed and wakes every waiter.
func (w *World) abort() {
	w.mu.Lock()
	w.failed = true
	w.cond.Broadcast()
	w.mu.Unlock()
	// Unblock any rank parked on a point-to-point receive.
	w.mailMu.Lock()
	for _, ch := range w.mail {
		select {
		case ch <- message{tag: -1}:
		default:
		}
	}
	w.mailMu.Unlock()
}

// Rank returns the caller's rank in [0, Size).
func (c *Comm) Rank() int { return c.rank }

// Size returns the number of ranks.
func (c *Comm) Size() int { return c.w.size }

// Clock returns the rank's virtual clock.
func (c *Comm) Clock() *sim.Clock { return c.clk }

// Machine returns the shared machine model.
func (c *Comm) Machine() *sim.Machine { return c.w.machine }

// exchange is the rendezvous primitive behind every collective: each rank
// deposits a contribution, the clocks align to the slowest participant, and
// every rank receives a snapshot of all contributions.
func (c *Comm) exchange(contribution any) ([]any, error) {
	w := c.w
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.failed {
		return nil, ErrAborted
	}
	gen := w.gen
	w.slots[c.rank] = contribution
	if t := c.clk.Now(); t > w.maxClock {
		w.maxClock = t
	}
	w.arrived++
	if w.arrived == w.size {
		// Last arriver: publish the snapshot and open the next generation.
		w.release = append([]any(nil), w.slots...)
		w.releaseMax = w.maxClock
		w.maxClock = 0
		w.arrived = 0
		w.gen++
		w.cond.Broadcast()
	} else {
		for w.gen == gen && !w.failed {
			w.cond.Wait()
		}
		if w.failed {
			return nil, ErrAborted
		}
	}
	out := make([]any, w.size)
	copy(out, w.release)
	c.clk.SyncTo(w.releaseMax)
	return out, nil
}

// Barrier synchronizes all ranks and their clocks.
func (c *Comm) Barrier() error {
	_, err := c.exchange(nil)
	if err != nil {
		return err
	}
	c.w.machine.ChargeBarrier(c.clk)
	return nil
}

func (c *Comm) mailbox(src, dst int) chan message {
	w := c.w
	w.mailMu.Lock()
	defer w.mailMu.Unlock()
	k := mailKey{src, dst}
	ch, ok := w.mail[k]
	if !ok {
		ch = make(chan message, 1024)
		w.mail[k] = ch
	}
	return ch
}

// Send delivers a copy of data to rank dst with the given tag. The copy is
// charged to the sender (sender-driven shared-memory transfer).
func (c *Comm) Send(dst int, tag int, data []byte) error {
	if dst < 0 || dst >= c.w.size {
		return fmt.Errorf("mpi: Send to invalid rank %d of %d", dst, c.w.size)
	}
	c.w.mu.Lock()
	failed := c.w.failed
	c.w.mu.Unlock()
	if failed {
		return ErrAborted
	}
	buf := make([]byte, len(data))
	copy(buf, data)
	c.w.machine.ChargeTransfer(c.clk, int64(len(data)))
	c.mailbox(c.rank, dst) <- message{data: buf, tag: tag, at: c.clk.Now()}
	return nil
}

// Recv blocks for the next message from src with the given tag and returns
// its payload. Receipt synchronizes the receiver's clock with the message's
// completion time.
func (c *Comm) Recv(src int, tag int) ([]byte, error) {
	if src < 0 || src >= c.w.size {
		return nil, fmt.Errorf("mpi: Recv from invalid rank %d of %d", src, c.w.size)
	}
	msg := <-c.mailbox(src, c.rank)
	if msg.tag == -1 && msg.data == nil {
		return nil, ErrAborted
	}
	if msg.tag != tag {
		return nil, fmt.Errorf("mpi: Recv tag mismatch: got %d, want %d (out-of-order receive)", msg.tag, tag)
	}
	c.clk.SyncTo(msg.at)
	return msg.data, nil
}

// Bcast distributes root's data to every rank. Non-root ranks ignore their
// data argument and receive a private copy.
func (c *Comm) Bcast(root int, data []byte) ([]byte, error) {
	var contrib any
	if c.rank == root {
		contrib = data
	}
	slots, err := c.exchange(contrib)
	if err != nil {
		return nil, err
	}
	src, _ := slots[root].([]byte)
	if c.rank == root {
		return data, nil
	}
	out := make([]byte, len(src))
	copy(out, src)
	c.w.machine.ChargeTransfer(c.clk, int64(len(src)))
	return out, nil
}

// Gather collects every rank's data at root (rank order). Non-root ranks
// receive nil.
func (c *Comm) Gather(root int, data []byte) ([][]byte, error) {
	slots, err := c.exchange(data)
	if err != nil {
		return nil, err
	}
	if c.rank != root {
		return nil, nil
	}
	out := make([][]byte, c.w.size)
	var total int64
	for i, s := range slots {
		b, _ := s.([]byte)
		out[i] = make([]byte, len(b))
		copy(out[i], b)
		total += int64(len(b))
	}
	c.w.machine.ChargeTransfer(c.clk, total)
	return out, nil
}

// AllgatherVol collects every rank's data at every rank. vol < 0 charges the
// actual received bytes; otherwise vol bytes are charged: callers moving
// framing metadata whose size does not scale with the workload (range lists
// in collective I/O) pass the analytic payload volume, keeping the
// virtual-time model faithful under profile scaling.
func (c *Comm) AllgatherVol(data []byte, vol int64) ([][]byte, error) {
	slots, err := c.exchange(data)
	if err != nil {
		return nil, err
	}
	out := make([][]byte, c.w.size)
	var total int64
	for i, s := range slots {
		b, _ := s.([]byte)
		out[i] = make([]byte, len(b))
		copy(out[i], b)
		total += int64(len(b))
	}
	if vol >= 0 {
		total = vol
	}
	c.w.machine.ChargeTransfer(c.clk, total)
	return out, nil
}

// AllgatherU64 is Allgather for a single integer, a common metadata pattern.
func (c *Comm) AllgatherU64(v uint64) ([]uint64, error) {
	slots, err := c.exchange(v)
	if err != nil {
		return nil, err
	}
	out := make([]uint64, c.w.size)
	for i, s := range slots {
		out[i], _ = s.(uint64)
	}
	c.w.machine.ChargeNetLatency(c.clk)
	return out, nil
}

// Scatter distributes parts[i] from root to rank i. Only root's parts
// argument is consulted.
func (c *Comm) Scatter(root int, parts [][]byte) ([]byte, error) {
	var contrib any
	if c.rank == root {
		if len(parts) != c.w.size {
			return nil, fmt.Errorf("mpi: Scatter needs %d parts, got %d", c.w.size, len(parts))
		}
		contrib = parts
	}
	slots, err := c.exchange(contrib)
	if err != nil {
		return nil, err
	}
	all, _ := slots[root].([][]byte)
	mine := all[c.rank]
	out := make([]byte, len(mine))
	copy(out, mine)
	c.w.machine.ChargeTransfer(c.clk, int64(len(mine)))
	return out, nil
}

// AlltoallVol delivers parts[j] from each rank to rank j; the result at rank j
// holds one slice per source rank. This is the rearrangement primitive
// two-phase collective I/O is built on. vol < 0 charges max(sent, received)
// actual bytes; otherwise vol bytes are charged (see AllgatherVol for when
// callers override the volume).
func (c *Comm) AlltoallVol(parts [][]byte, vol int64) ([][]byte, error) {
	if len(parts) != c.w.size {
		return nil, fmt.Errorf("mpi: Alltoall needs %d parts, got %d", c.w.size, len(parts))
	}
	var sent int64
	for _, p := range parts {
		sent += int64(len(p))
	}
	slots, err := c.exchange(parts)
	if err != nil {
		return nil, err
	}
	out := make([][]byte, c.w.size)
	var recvd int64
	for src, s := range slots {
		all, _ := s.([][]byte)
		b := all[c.rank]
		out[src] = make([]byte, len(b))
		copy(out[src], b)
		recvd += int64(len(b))
	}
	if vol < 0 {
		// Each rank drives its own outgoing copy and its own incoming
		// unpack; the larger of the two bounds its time.
		vol = sent
		if recvd > vol {
			vol = recvd
		}
	}
	c.w.machine.ChargeTransfer(c.clk, vol)
	return out, nil
}

// ShareLocal broadcasts an arbitrary in-process value from root to every
// rank. Unlike Bcast it transfers a reference, not bytes — the single-node
// shared-memory analogue of all processes mapping the same pool file: every
// rank ends up operating on the same object.
func (c *Comm) ShareLocal(root int, v any) (any, error) {
	var contrib any
	if c.rank == root {
		contrib = v
	}
	slots, err := c.exchange(contrib)
	if err != nil {
		return nil, err
	}
	c.w.machine.ChargeNetLatency(c.clk)
	return slots[root], nil
}

// Op is a reduction operator.
type Op int

// Reduction operators.
const (
	OpSum Op = iota
	OpMax
	OpMin
)

// AllreduceU64 reduces an integer across ranks.
func (c *Comm) AllreduceU64(v uint64, op Op) (uint64, error) {
	slots, err := c.exchange(v)
	if err != nil {
		return 0, err
	}
	var acc uint64
	for i, s := range slots {
		x, _ := s.(uint64)
		if i == 0 {
			acc = x
			continue
		}
		switch op {
		case OpSum:
			acc += x
		case OpMax:
			if x > acc {
				acc = x
			}
		case OpMin:
			if x < acc {
				acc = x
			}
		}
	}
	c.w.machine.ChargeLogTree(c.clk, c.w.size)
	return acc, nil
}

// ExscanU64 returns the exclusive prefix sum of v over ranks: rank 0 gets 0,
// rank i gets the sum of ranks [0, i). ADIOS-style writers use it to compute
// per-process file offsets without a data rearrangement phase.
func (c *Comm) ExscanU64(v uint64) (uint64, error) {
	vals, err := c.AllgatherU64(v)
	if err != nil {
		return 0, err
	}
	var sum uint64
	for i := 0; i < c.rank; i++ {
		sum += vals[i]
	}
	return sum, nil
}
