package node

import (
	"bytes"
	"testing"

	"pmemcpy/internal/pmem"
	"pmemcpy/internal/sim"
)

const devSize = 1 << 20

// TestSingleDeviceNode pins that WithPMEMPools(1) — and 0 — build exactly the
// default node: one device on the machine's default PMEM ports.
func TestSingleDeviceNode(t *testing.T) {
	for _, opts := range [][]Option{nil, {WithPMEMPools(0)}, {WithPMEMPools(1)}} {
		n := New(sim.DefaultConfig(), devSize, opts...)
		if n.Pools() != 1 {
			t.Fatalf("Pools() = %d, want 1", n.Pools())
		}
		if n.DeviceAt(0) != n.Device || n.FSAt(0) != n.FS {
			t.Error("DeviceAt(0)/FSAt(0) are not the node's Device/FS")
		}
		if n.Device.Size() != devSize {
			t.Errorf("device size %d, want %d", n.Device.Size(), devSize)
		}
		if n.Device.WritePort() != n.Machine.PMEMWrite || n.Device.ReadPort() != n.Machine.PMEMRead {
			t.Error("a single-device node must charge the machine's default PMEM ports")
		}
	}
}

// TestMultiDeviceNode pins indexing and port isolation on a multi-pool node:
// n distinct devices of the requested size, each with its own filesystem and
// its own dedicated port pair, Device/FS aliasing member 0.
func TestMultiDeviceNode(t *testing.T) {
	const pools = 4
	n := New(sim.DefaultConfig(), devSize, WithPMEMPools(pools))
	if n.Pools() != pools {
		t.Fatalf("Pools() = %d, want %d", n.Pools(), pools)
	}
	if n.DeviceAt(0) != n.Device || n.FSAt(0) != n.FS {
		t.Error("Device/FS are not member 0")
	}
	devs := map[*pmem.Device]bool{}
	ports := map[*sim.Pool]bool{n.Machine.PMEMWrite: true, n.Machine.PMEMRead: true}
	var clk sim.Clock
	for i := 0; i < pools; i++ {
		d := n.DeviceAt(i)
		if devs[d] {
			t.Errorf("device %d is shared with another member", i)
		}
		devs[d] = true
		if d.Size() != devSize {
			t.Errorf("device %d size %d, want %d", i, d.Size(), devSize)
		}
		for _, p := range []*sim.Pool{d.WritePort(), d.ReadPort()} {
			if ports[p] {
				t.Errorf("device %d shares a bandwidth port with the machine or another member", i)
			}
			ports[p] = true
		}
		// Each filesystem is mounted on its own device: the same path exists
		// only where it was created.
		if _, err := n.FSAt(i).Create(&clk, "/probe"); err != nil {
			t.Fatalf("fs %d: %v", i, err)
		}
		for j := i + 1; j < pools; j++ {
			if _, err := n.FSAt(j).Stat(&clk, "/probe"); err == nil {
				t.Errorf("file created on fs %d is visible on fs %d", i, j)
			}
		}
	}
}

// TestCrashAllRollsBackEveryMember writes one persisted and one unpersisted
// line to every device of a crash-tracked multi-pool node, arms a failure
// through the shared fault domain, and checks that CrashAll rolls back the
// unpersisted line on every member and restores power to all of them.
func TestCrashAllRollsBackEveryMember(t *testing.T) {
	const pools = 3
	pt := pmem.RegisterPoint("node.test")
	n := New(sim.DefaultConfig(), devSize, WithPMEMPools(pools),
		WithDeviceOptions(pmem.WithCrashTracking()))
	n.Machine.SetConcurrency(1)
	var clk sim.Clock
	durable := bytes.Repeat([]byte{0xD0}, sim.CachelineSize)
	volatile := bytes.Repeat([]byte{0x77}, sim.CachelineSize)
	for i := 0; i < pools; i++ {
		d := n.DeviceAt(i)
		if _, err := d.WriteAt(&clk, durable, 0); err != nil {
			t.Fatal(err)
		}
		if err := d.Persist(&clk, 0, sim.CachelineSize, pt); err != nil {
			t.Fatal(err)
		}
		if _, err := d.WriteAt(&clk, volatile, sim.CachelineSize); err != nil {
			t.Fatal(err)
		}
	}
	// One fault domain: failing member 0 fails the whole namespace.
	n.Device.ArmCrashAtOp(0, 0)
	if err := n.DeviceAt(pools-1).Persist(&clk, sim.CachelineSize, sim.CachelineSize, pt); err == nil {
		t.Fatal("persist on the last member succeeded after member 0's fault domain failed")
	}

	n.CrashAll(pmem.CrashLoseAll, nil)
	got := make([]byte, sim.CachelineSize)
	for i := 0; i < pools; i++ {
		d := n.DeviceAt(i)
		if d.Failed() {
			t.Errorf("device %d still failed after CrashAll", i)
		}
		if _, err := d.ReadAt(&clk, got, 0); err != nil || !bytes.Equal(got, durable) {
			t.Errorf("device %d lost its persisted line (err %v)", i, err)
		}
		if _, err := d.ReadAt(&clk, got, sim.CachelineSize); err != nil || bytes.Equal(got, volatile) {
			t.Errorf("device %d kept its unpersisted line across CrashAll (err %v)", i, err)
		}
	}
}
