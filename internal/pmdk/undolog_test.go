package pmdk

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"pmemcpy/internal/checksum"
	"pmemcpy/internal/pmem"
	"pmemcpy/internal/sim"
)

// Tests of the generation-stamped, self-validating undo log (tx.go): the
// failure contract of Commit, the three ways a lane could replay bytes that
// are not its log (stale entries, torn entries, a recovery that itself lost
// power), the on-media version gate, the transaction's heap budget, and a
// fuzz target over the lane area.

// TestCommitFailureRollsBackAndReleases fails every persist of an overwriting
// Put in turn with an uncorrectable media error — once for a value of the old
// length (rewritten in place) and once for a longer one (relinked to a new
// block). Whichever persist it is — an entry, the value block, a commit
// flush, the generation bump — the Put returns ErrMedia having rolled back:
// structures clean, the old value readable, and no lane or arena lock
// stranded, so later Puts go through.
func TestCommitFailureRollsBackAndReleases(t *testing.T) {
	failed := map[pmem.PointID]bool{}
	for _, val := range []string{"new-victim", "new-victim-grown"} {
		sweepFailedPut(t, val, failed)
	}
	for _, pt := range []pmem.PointID{ptTxLogEntry, ptHTValue, ptTxCommitData, ptTxLaneClose} {
		if !failed[pt] {
			t.Errorf("the sweep never failed a persist at %v", pt)
		}
	}
}

func sweepFailedPut(t *testing.T, val string, failed map[pmem.PointID]bool) {
	for k := int64(0); ; k++ {
		dev, _, ht, _ := setupCrashTable(t)
		clk := new(sim.Clock)
		dev.StartTrace()
		dev.InjectTransient(k, 5)
		err := ht.Put(clk, []byte("victim"), []byte(val))
		trace := dev.StopTrace()
		dev.DisarmInjection()
		if err == nil {
			break // k is past the Put's last persist
		}
		if !errors.Is(err, pmem.ErrMedia) {
			t.Fatalf("k=%d (%v): Put = %v, want ErrMedia", k, trace[k].Point, err)
		}
		failed[trace[k].Point] = true
		if trace[k].Point == ptTxLaneClose {
			// A failed generation bump: the old generation is re-persisted
			// before the first pre-image is applied.
			if int64(len(trace)) < k+3 || trace[k+1].Point != ptTxLaneClose || trace[k+2].Point != ptRecUndo {
				t.Fatalf("k=%d: after a failed bump want lane.close then rec.undo, trace %v", k, trace[k:])
			}
		}
		if vs := ht.p.Verify(clk); len(vs) != 0 {
			t.Fatalf("k=%d (%v): pool violations after failed Put: %v", k, trace[k].Point, vs)
		}
		if vs := ht.Verify(clk); len(vs) != 0 {
			t.Fatalf("k=%d (%v): hashtable violations after failed Put: %v", k, trace[k].Point, vs)
		}
		if v, ok, err := ht.Get(clk, []byte("victim")); err != nil || !ok || string(v) != "old-victim" {
			t.Fatalf("k=%d (%v): Get = (%q, %v, %v), want the old value", k, trace[k].Point, v, ok, err)
		}
		done := make(chan error, 1)
		go func() {
			for i := 0; i < 40; i++ {
				if err := ht.Put(clk, []byte(fmt.Sprintf("after-%d", i%8)), []byte("v")); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("k=%d (%v): follow-up Put: %v", k, trace[k].Point, err)
			}
		case <-time.After(20 * time.Second):
			t.Fatalf("k=%d (%v): follow-up Puts hang: the failed Put stranded a lane or an arena lock", k, trace[k].Point)
		}
	}
}

// TestCrashInsideFailedCommitRollback cuts the power inside the rollback that
// a failed generation bump triggers. Had the bumped generation been left in
// the cache, a keep-all crash would carry it to the media next to a
// half-applied rollback whose log it disowns.
func TestCrashInsideFailedCommitRollback(t *testing.T) {
	dev, _, ht, _ := setupCrashTable(t)
	dev.StartTrace()
	if err := ht.Put(new(sim.Clock), []byte("victim"), []byte("new-victim")); err != nil {
		t.Fatal(err)
	}
	bump := int64(len(dev.StopTrace()) - 1)
	for _, mode := range []pmem.CrashMode{pmem.CrashLoseAll, pmem.CrashKeepAll} {
		for j := int64(1); ; j++ {
			dev, mp, ht, htID := setupCrashTable(t)
			clk := new(sim.Clock)
			dev.InjectTransient(bump, 5)
			dev.ArmCrashAtOp(bump+j, 0)
			err := ht.Put(clk, []byte("victim"), []byte("new-victim"))
			if !errors.Is(err, pmem.ErrMedia) {
				t.Fatalf("mode %v j=%d: Put = %v, want ErrMedia", mode, j, err)
			}
			crashed := dev.Failed()
			dev.Crash(mode, nil)
			p2, err := Open(clk, mp)
			if err != nil {
				t.Fatalf("mode %v j=%d: recovery: %v", mode, j, err)
			}
			ht2, err := OpenHashtable(clk, p2, htID)
			if err != nil {
				t.Fatal(err)
			}
			if vs := append(p2.Verify(clk), ht2.Verify(clk)...); len(vs) != 0 {
				t.Fatalf("mode %v j=%d: violations after recovery: %v", mode, j, vs)
			}
			if v, ok, err := ht2.Get(clk, []byte("victim")); err != nil || !ok || string(v) != "old-victim" {
				t.Fatalf("mode %v j=%d: Get = (%q, %v, %v), want the old value", mode, j, v, ok, err)
			}
			if !crashed {
				break // j is past the rollback's last persist
			}
		}
	}
}

// TestStaleEntriesNeverReplay leaves a committed 10-entry log in every lane,
// then loses power inside a 1-, 2- and 3-entry transaction on a reused lane.
// The short log's slots line up exactly with the old one's, so the entry
// after its last is a complete, well-formed entry of an earlier generation:
// recovery must stop in front of it.
func TestStaleEntriesNeverReplay(t *testing.T) {
	modes := []pmem.CrashMode{pmem.CrashLoseAll, pmem.CrashKeepAll, pmem.CrashRandom}
	for short := 1; short <= 3; short++ {
		for mi, mode := range modes {
			dev, mp, p := crashRig(t, 2<<20)
			clk := new(sim.Clock)
			root, _ := p.Root()
			word := func(lane, i int) PMID { return root + PMID(8*(10*lane+i)) }
			txs := make([]*Tx, p.lanes)
			for l := range txs {
				txs[l], _ = p.Begin(clk)
				for i := 0; i < 10; i++ {
					if err := txs[l].WriteU64(word(l, i), uint64(1000*l+i+1)); err != nil {
						t.Fatal(err)
					}
				}
			}
			for _, tx := range txs {
				if err := tx.Commit(); err != nil {
					t.Fatal(err)
				}
			}
			tx, _ := p.Begin(clk)
			for i := 0; i < short; i++ {
				if err := tx.WriteU64(word(7, i), 0xDEAD); err != nil {
					t.Fatal(err)
				}
			}
			dev.Crash(mode, rand.New(rand.NewSource(int64(10*short+mi))))
			p2, err := Open(clk, mp)
			if err != nil {
				t.Fatalf("short=%d mode %v: recovery: %v", short, mode, err)
			}
			if got := p2.Stats().Recovered; got != 1 {
				t.Fatalf("short=%d mode %v: %d lanes recovered, want exactly the crashed one", short, mode, got)
			}
			if vs := p2.Verify(clk); len(vs) != 0 {
				t.Fatalf("short=%d mode %v: %v", short, mode, vs)
			}
			for l := 0; l < p.lanes; l++ {
				for i := 0; i < 10; i++ {
					v, err := p2.ReadU64(clk, word(l, i))
					if err != nil {
						t.Fatal(err)
					}
					if want := uint64(1000*l + i + 1); v != want {
						t.Fatalf("short=%d mode %v: word (%d,%d) = %#x, want committed %d", short, mode, l, i, v, want)
					}
				}
			}
		}
	}
}

// TestCrashTornEntries crashes a transaction whose log entries straddle
// cachelines (24-, 40- and 72-byte pre-images behind 16-byte headers) at
// every persist, under every adversary including a torn in-flight flush, over
// lanes that already hold same-shaped entries of earlier generations. An
// entry that reached the media in part must not validate: the three ranges
// read all-old or all-new, and all-new once Commit returned.
func TestCrashTornEntries(t *testing.T) {
	type variant struct {
		mode pmem.CrashMode
		seed int64 // rng seed for CrashRandom; tear seed when torn
		torn bool
	}
	variants := []variant{{mode: pmem.CrashLoseAll}, {mode: pmem.CrashKeepAll}, {mode: pmem.CrashLoseAll, seed: 99, torn: true}}
	for s := int64(1); s <= 8; s++ {
		variants = append(variants, variant{mode: pmem.CrashRandom, seed: s})
	}
	sizes := []int64{24, 40, 72}
	fill := func(p *Pool, tx *Tx, b byte) error {
		root, _ := p.Root()
		for i, n := range sizes {
			off := root + PMID(256*i+8)
			if err := tx.Add(off, n); err != nil {
				return err
			}
			if err := p.StoreBytesAt(tx.t.clk, off, bytes.Repeat([]byte{b}, int(n)), false, ptTest); err != nil {
				return err
			}
		}
		return tx.Commit()
	}
	for _, v := range variants {
		for k := int64(0); ; k++ {
			dev, mp, p := crashRig(t, 2<<20)
			clk := new(sim.Clock)
			for l := 0; l < p.lanes; l++ { // every lane: a stale log of the same shape; the ranges end as 'o'
				tx, _ := p.Begin(clk)
				if err := fill(p, tx, 'o'); err != nil {
					t.Fatal(err)
				}
			}
			var tear uint64
			if v.torn {
				tear = uint64(v.seed)<<8 | uint64(k)<<1 | 1
			}
			dev.ArmCrashAtOp(k, tear)
			tx, _ := p.Begin(clk)
			err := fill(p, tx, 'N')
			if err != nil && !errors.Is(err, pmem.ErrFailed) {
				t.Fatalf("%+v k=%d: %v", v, k, err)
			}
			dev.Crash(v.mode, rand.New(rand.NewSource(v.seed*1000+k)))
			p2, rerr := Open(clk, mp)
			if rerr != nil {
				t.Fatalf("%+v k=%d: recovery: %v", v, k, rerr)
			}
			if vs := p2.Verify(clk); len(vs) != 0 {
				t.Fatalf("%+v k=%d: %v", v, k, vs)
			}
			root, _ := p2.Root()
			var got []byte
			for i, n := range sizes {
				b, rerr := p2.ReadBytes(clk, root+PMID(256*i+8), n)
				if rerr != nil {
					t.Fatal(rerr)
				}
				got = append(got, b...)
			}
			old, neu := bytes.Repeat([]byte{'o'}, len(got)), bytes.Repeat([]byte{'N'}, len(got))
			if !bytes.Equal(got, neu) && (err == nil || !bytes.Equal(got, old)) {
				t.Fatalf("%+v k=%d (commit err %v): ranges read %q, want all-old or all-new", v, k, err, got)
			}
			if err == nil {
				break
			}
		}
	}
}

// TestCrashNFoldRecovery loses power inside the recovery of a three-entry
// log, at each of rollbackLane's persists (three pre-images and the
// generation bump), three recoveries in a row, under each adversary: every
// sequence converges on the pre-transaction bytes with every lane idle.
func TestCrashNFoldRecovery(t *testing.T) {
	const persists = 4
	for mi, mode := range []pmem.CrashMode{pmem.CrashKeepAll, pmem.CrashLoseAll, pmem.CrashRandom} {
		for seq := 0; seq < persists*persists*persists; seq++ {
			dev, mp, p := crashRig(t, 2<<20)
			clk := new(sim.Clock)
			root, _ := p.Root()
			if err := p.StoreBytesAt(clk, root, []byte("AAAAAAAABBBBBBBBCCCCCCCC"), true, ptTest); err != nil {
				t.Fatal(err)
			}
			tx, _ := p.Begin(clk)
			for i := 0; i < 3; i++ {
				if err := tx.WriteU64(root+PMID(8*i), u64("mutated!")); err != nil {
					t.Fatal(err)
				}
			}
			rng := rand.New(rand.NewSource(int64(1000*mi + seq)))
			dev.Crash(pmem.CrashKeepAll, nil) // the mutations reached the media; the commit did not
			for fold, ks := 0, seq; fold < 3; fold, ks = fold+1, ks/persists {
				dev.ArmCrashAtOp(int64(ks%persists), 0)
				// nil once an earlier fold's generation bump survived its crash.
				if _, err := Open(clk, mp); err != nil && !errors.Is(err, pmem.ErrFailed) {
					t.Fatalf("mode %v seq %d fold %d: Open = %v", mode, seq, fold, err)
				}
				dev.Crash(mode, rng)
			}
			p2, err := Open(clk, mp)
			if err != nil {
				t.Fatalf("mode %v seq %d: final recovery: %v", mode, seq, err)
			}
			if vs := p2.Verify(clk); len(vs) != 0 {
				t.Fatalf("mode %v seq %d: %v", mode, seq, vs)
			}
			if got, _ := p2.ReadBytes(clk, root, 24); string(got) != "AAAAAAAABBBBBBBBCCCCCCCC" {
				t.Fatalf("mode %v seq %d: root = %q after 4-fold recovery", mode, seq, got)
			}
		}
	}
}

func TestOpenRefusesV2Pool(t *testing.T) {
	_, mp, clk := newTestPool(t, 0)
	hdr, err := mp.Slice(0, headerSize)
	if err != nil {
		t.Fatal(err)
	}
	// A version-2 pool, header checksum and all: its lanes hold the counted
	// log this reader no longer understands.
	binary.LittleEndian.PutUint32(hdr[hdrVersion:], 2)
	binary.LittleEndian.PutUint64(hdr[hdrChecksum:], headerChecksum(hdr))
	_, err = Open(clk, mp)
	if !errors.Is(err, ErrBadPool) || errors.Is(err, ErrCorrupt) ||
		!strings.Contains(err.Error(), fmt.Sprintf("format version 2, this build reads only version %d", poolVersion)) {
		t.Fatalf("Open(v2 pool) = %v, want ErrBadPool naming both versions", err)
	}
}

// TestTxHeapBudget pins the transaction's allocations: Begin hands out a
// handle on its lane's transaction, which carries its range and arena lists
// inline, and an entry's CRC is summed in place.
func TestTxHeapBudget(t *testing.T) {
	p, _, clk := newTestPool(t, 0)
	root, _ := p.Root()
	cycle := testing.AllocsPerRun(100, func() {
		tx, _ := p.Begin(clk)
		for i := 0; i < 3; i++ {
			if err := tx.WriteU64(root+PMID(64*i), 1); err != nil {
				t.Fatal(err)
			}
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	})
	if cycle != 0 {
		t.Errorf("Begin + 3 WriteU64 + Commit = %v allocations, want 0", cycle)
	}
	tx, _ := p.Begin(clk)
	defer tx.Abort()
	i := 0
	add := testing.AllocsPerRun(6, func() {
		if err := tx.Add(root+PMID(64*i), 8); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if add != 0 {
		t.Errorf("Add = %v allocations, want 0", add)
	}
}

// TestFinishedTxIsStale: a handle used after Commit or Abort fails, and never
// reaches a later transaction — not of its lane, and not of the state it was
// a handle on, which the next Begin takes up again.
func TestFinishedTxIsStale(t *testing.T) {
	p, _, clk := newTestPool(t, 0)
	root, _ := p.Root()
	for _, end := range []string{"Commit", "Abort"} {
		old, _ := p.Begin(clk)
		if end == "Commit" {
			if err := old.Commit(); err != nil {
				t.Fatal(err)
			}
		} else if err := old.Abort(); err != nil {
			t.Fatal(err)
		}
		// Every lane busy with a later transaction, the old one's among them.
		var live []*Tx
		for range p.lanes {
			tx, _ := p.Begin(clk)
			live = append(live, tx)
		}
		if err := old.WriteU64(root, 7); err == nil {
			t.Errorf("WriteU64 after %s succeeded", end)
		}
		if _, err := p.Alloc(old, 64); err == nil {
			t.Errorf("Alloc after %s succeeded", end)
		}
		if err := old.Commit(); err == nil {
			t.Errorf("Commit after %s succeeded", end)
		}
		if err := old.Abort(); err == nil {
			t.Errorf("Abort after %s succeeded", end)
		}
		for _, tx := range live {
			if tx.t.used != 0 || len(tx.t.held) != 0 {
				t.Errorf("a stale handle acted on a live transaction of lane %d", tx.t.lane)
			}
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func TestUndoStatsCountEntriesAndCoveredAdds(t *testing.T) {
	p, _, clk := newTestPool(t, 0)
	root, _ := p.Root()
	tx, _ := p.Begin(clk)
	for _, w := range []struct {
		off PMID
		vs  []uint64
	}{{root, []uint64{1, 2, 3}}, {root + 8, []uint64{4}}, {root + 64, []uint64{5}}} {
		if err := tx.WriteU64s(w.off, w.vs...); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	st := p.Stats()
	if st.UndoEntries != 2 || st.UndoBytes != (16+24)+(16+8) || st.UndoCovered != 1 {
		t.Fatalf("undo stats = %d entries, %d bytes, %d covered; want 2, 64, 1", st.UndoEntries, st.UndoBytes, st.UndoCovered)
	}
	if v, _ := p.ReadU64(clk, root+8); v != 4 {
		t.Fatalf("covered write lost: word = %d, want 4", v)
	}
}

// fuzzEntry is one entry of a laneImage, summed under its own generation —
// the lane's, or a stale one.
type fuzzEntry struct {
	gen uint64
	off uint64
	img []byte
}

// laneImage builds lane bytes: the generation header followed by entries.
func laneImage(gen uint64, entries ...fuzzEntry) []byte {
	b := binary.LittleEndian.AppendUint64(nil, gen)
	b = append(b, make([]byte, 8)...)
	for _, e := range entries {
		start := len(b)
		b = binary.LittleEndian.AppendUint64(b, e.off)
		b = binary.LittleEndian.AppendUint32(b, uint32(len(e.img)))
		b = binary.LittleEndian.AppendUint32(b, 0)
		b = append(b, e.img...)
		b = append(b, make([]byte, int(align8(int64(len(e.img))))-len(e.img))...)
		crc := checksum.Update(checksum.Sum(binary.LittleEndian.AppendUint64(nil, e.gen)), b[start:start+12])
		binary.LittleEndian.PutUint32(b[start+12:], checksum.Update(crc, e.img))
	}
	return b
}

// FuzzLaneRecovery plants arbitrary bytes over the lane area of an otherwise
// valid pool and opens it. Recovery runs on whatever a crash or a bad device
// left there, so it must never panic or size anything by a lane word, may
// write only the ranges of entries that validate under their lane's
// generation (re-derived here from the layout comment, not from logEntry),
// and must leave every lane idle.
func FuzzLaneRecovery(f *testing.F) {
	f.Add([]byte{})
	f.Add(laneImage(0, fuzzEntry{0, 8192, []byte("preimage")}))
	f.Add(laneImage(5, fuzzEntry{5, 8200, []byte("valid under the lane's generation")}, fuzzEntry{4, 8192, []byte("stale: one generation back")}))
	f.Fuzz(func(t *testing.T, lanes []byte) {
		mach := sim.NewMachine(sim.DefaultConfig())
		dev := pmem.New(mach, 256<<10)
		mp, err := pmem.NewMapping(dev, 0, dev.Size(), false)
		if err != nil {
			t.Fatal(err)
		}
		clk := new(sim.Clock)
		p, err := Create(clk, mp, &Options{RootSize: 64, Lanes: 2, Arenas: 1, LaneLogSize: 4096})
		if err != nil {
			t.Fatal(err)
		}
		all, _ := mp.Slice(0, mp.Len())
		copy(all[p.laneOff:p.laneOff+int64(p.lanes)*p.laneSize], lanes)
		before := bytes.Clone(all)

		// The ranges recovery may write: each lane's generation word, and the
		// target of every entry in its maximal valid run.
		writable := make([]bool, len(all))
		for l := 0; l < p.lanes; l++ {
			lb := before[p.laneBase(l) : p.laneBase(l)+p.laneSize]
			for i := range lb[:8] {
				writable[int(p.laneBase(l))+i] = true
			}
			for pos := 16; pos+16 <= len(lb); {
				off, n := binary.LittleEndian.Uint64(lb[pos:]), int(binary.LittleEndian.Uint32(lb[pos+8:]))
				if n == 0 || pos+16+int(align8(int64(n))) > len(lb) || off > uint64(len(all)) || off+uint64(n) > uint64(len(all)) {
					break
				}
				crc := checksum.Update(checksum.Sum(lb[:8]), lb[pos:pos+12])
				if checksum.Update(crc, lb[pos+16:pos+16+n]) != binary.LittleEndian.Uint32(lb[pos+12:]) {
					break
				}
				for i := 0; i < n; i++ {
					writable[int(off)+i] = true
				}
				pos += 16 + int(align8(int64(n)))
			}
		}

		p2, err := Open(clk, mp)
		for i := range all {
			if all[i] != before[i] && !writable[i] {
				t.Fatalf("Open wrote byte %d, outside every validated entry's range", i)
			}
		}
		if err != nil {
			return // a validated entry may restore garbage over allocator state; Open may then refuse the pool
		}
		for _, v := range p2.Verify(clk) {
			if v.Invariant == "lane.idle" {
				t.Fatalf("lane not idle after Open: %v", v)
			}
		}
	})
}
