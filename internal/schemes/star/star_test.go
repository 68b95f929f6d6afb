package star

import (
	"bytes"
	"fmt"
	"slices"
	"sort"
	"testing"

	"nvmstar/internal/bitmap"
	"nvmstar/internal/cache"
	"nvmstar/internal/cachetree"
	"nvmstar/internal/counter"
	"nvmstar/internal/memline"
	"nvmstar/internal/secmem"
	"nvmstar/internal/simcrypto"
	"nvmstar/internal/sit"
)

// referenceRecover is STAR's recovery with steps 2+3 as two plain
// serial loops over the stale nodes: each counted NVM access issued
// and its content used on the spot, one node at a time. It is the
// specification recover's split form (serial accounting replay, fanned
// out counter and MAC passes, serial commit) must reproduce exactly,
// at every recovery worker count.
func referenceRecover(s *Scheme, flatScan bool) (*secmem.RecoveryReport, error) {
	rep := &secmem.RecoveryReport{Scheme: "star", Supported: true}
	if !s.crashed {
		return rep, fmt.Errorf("star: recover called without a crash")
	}
	geo := s.e.Geometry()

	// Step 1: locate the stale metadata through the multi-layer index.
	var scan bitmap.ScanResult
	if flatScan {
		scan = s.tracker.ScanStaleFlat()
	} else {
		scan = s.tracker.ScanStale()
	}
	rep.IndexReads = scan.LinesRead
	rep.StaleNodes = len(scan.StaleMetaIdx)

	ids := make([]sit.NodeID, 0, len(scan.StaleMetaIdx))
	for _, metaIdx := range scan.StaleMetaIdx {
		id, ok := geo.NodeAtMetaLine(metaIdx)
		if !ok {
			return rep, fmt.Errorf("%w: bitmap marks non-metadata line %d",
				secmem.ErrRecoveryVerification, metaIdx)
		}
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool {
		if ids[i].Level != ids[j].Level {
			return ids[i].Level < ids[j].Level
		}
		return ids[i].Index < ids[j].Index
	})

	restored := make(map[sit.NodeID]counter.Node, len(ids))
	// Step 2.
	for _, id := range ids {
		stale, _ := s.e.ReadMetaRaw(id)
		rep.NodeReads++
		node := stale
		for slot := 0; slot < counter.Arity; slot++ {
			lsb, ok := referenceChildLSB(s, id, slot, rep)
			if !ok {
				// Child never persisted: the counter was never bumped
				// since the stale copy; keep the stale value.
				continue
			}
			node.Counters[slot] = counter.CombineLSB(stale.Counters[slot], lsb)
		}
		restored[id] = node
	}

	// Step 3.
	for _, id := range ids {
		node := restored[id]
		pctr := referenceParentCounter(s, id, restored, rep)
		node.MACField = s.e.NodeMACField(id, node.Counters, pctr)
		rep.MACComputes++
		restored[id] = node
		s.e.WriteMetaRestored(id, node)
		rep.NodeWrites++
	}

	// Step 4.
	perSet := make(map[int][]cachetree.SetEntry)
	for _, id := range ids {
		addr := geo.NodeAddr(id)
		set := s.e.MetaCache().SetIndex(addr)
		perSet[set] = append(perSet[set], cachetree.SetEntry{Addr: addr, MAC: restored[id].MACField})
	}
	root, err := cachetree.BuildRoot(s.e.Suite(), s.e.MetaCache().NumSets(), perSet, 1)
	if err != nil {
		return rep, err
	}
	if root != s.treeRoot {
		return rep, fmt.Errorf("%w: cache-tree root mismatch (stored %#x, rebuilt %#x)",
			secmem.ErrRecoveryVerification, s.treeRoot, root)
	}
	rep.Verified = true
	if err := s.reset(scan.StaleMetaIdx); err != nil {
		return rep, err
	}
	return rep, nil
}

// referenceChildLSB reads the 10-bit LSB slot persisted in the MAC
// field of the slot'th child of id. ok is false when the child does not
// exist or was never written to NVM.
func referenceChildLSB(s *Scheme, id sit.NodeID, slot int, rep *secmem.RecoveryReport) (uint64, bool) {
	geo := s.e.Geometry()
	if id.Level == 0 {
		childAddr, exists := geo.ChildDataAddr(id, slot)
		if !exists {
			return 0, false
		}
		_, macField, present := s.e.ReadDataRaw(childAddr)
		rep.NodeReads++
		if !present {
			return 0, false
		}
		return counter.LSB10(macField), true
	}
	child, exists := geo.ChildNode(id, slot)
	if !exists {
		return 0, false
	}
	node, present := s.e.ReadMetaRaw(child)
	rep.NodeReads++
	if !present {
		return 0, false
	}
	return counter.LSB10(node.MACField), true
}

func referenceParentCounter(s *Scheme, id sit.NodeID, restored map[sit.NodeID]counter.Node, rep *secmem.RecoveryReport) uint64 {
	geo := s.e.Geometry()
	parent, slot := geo.Parent(id)
	if geo.IsRoot(parent) {
		return s.e.RootNode().Counters[slot]
	}
	// The read is performed (and counted) even when the parent is in
	// the restored set — its NVM copy carries the needed MSB context —
	// matching the paper's 10-reads-per-stale-node accounting; the
	// authoritative counters come from the restored map when present.
	n, _ := s.e.ReadMetaRaw(parent)
	rep.NodeReads++
	if rn, ok := restored[parent]; ok {
		return rn.Counters[slot]
	}
	return n.Counters[slot]
}

// routed is STAR with Engine.Recover sent to one of the recoveries
// under comparison, so each runs inside the engine's recovery window.
type routed struct {
	*Scheme
	reference, flatScan bool
}

func (r routed) Recover() (*secmem.RecoveryReport, error) {
	if r.reference {
		return referenceRecover(r.Scheme, r.flatScan)
	}
	return r.recover(r.flatScan)
}

// recovered is everything a recovery leaves observable.
type recovered struct {
	rep      secmem.RecoveryReport
	stats    secmem.Stats
	dev      string
	snapshot []byte
	// accesses is the device access-hook sequence during recovery
	// (addr<<1 | write): the machine's timing model replays it, so its
	// order is observable too.
	accesses []uint64
}

// crashAndRecover builds a STAR engine with the given recovery worker
// count, dirties it with a seeded write stream (short runs of adjacent
// lines, so stale nodes sit at several tree levels and under stale
// parents), crashes it and recovers through r.
func crashAndRecover(t *testing.T, shards int, seed uint64, r routed) recovered {
	t.Helper()
	e, err := secmem.New(secmem.Config{
		DataBytes: 1 << 20,
		MetaCache: cache.Config{SizeBytes: 16 << 10, Ways: 8},
		Suite:     simcrypto.NewFast(2024),
		Shards:    shards,
	})
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(e, bitmap.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	r.Scheme = s
	e.SetScheme(r)

	rng := seed * 0x9e3779b97f4a7c15
	next := func() uint64 {
		rng = rng*6364136223846793005 + 1442695040888963407
		return rng >> 11
	}
	lines := e.Geometry().DataBytes() / memline.Size
	writes := 1500 + int(seed)*700
	for i := 0; i < writes; i++ {
		base, burst := next()%lines, next()%4+1
		for b := uint64(0); b < burst; b++ {
			addr := ((base + b) % lines) * memline.Size
			var l memline.Line
			for j := range l {
				l[j] = byte(addr>>6) ^ byte(i*131) ^ byte(j)
			}
			if err := e.WriteLine(addr, l); err != nil {
				t.Fatalf("write %#x: %v", addr, err)
			}
		}
	}
	e.Crash()
	var got recovered
	e.Device().SetHook(func(write bool, addr uint64) {
		a := addr << 1
		if write {
			a |= 1
		}
		got.accesses = append(got.accesses, a)
	})
	rep, err := e.Recover()
	e.Device().SetHook(nil)
	if err != nil {
		t.Fatalf("shards=%d: recover: %v", shards, err)
	}
	if !rep.Verified || rep.StaleNodes == 0 {
		t.Fatalf("shards=%d: recovery unverified or trivial: %+v", shards, rep)
	}
	wearAddr, wearMax := e.Device().MaxWear()
	got.rep = *rep
	got.stats = e.Stats()
	got.dev = fmt.Sprintf("%+v lines=%d maxwear=%d@%#x",
		e.Device().Stats(), e.Device().LinesWritten(), wearMax, wearAddr)
	e.Crash()
	var snap bytes.Buffer
	if err := e.SaveNonVolatile(&snap); err != nil {
		t.Fatal(err)
	}
	got.snapshot = snap.Bytes()
	return got
}

// TestRecoverMatchesReference pins recover's split form to the serial
// reference: after the same writes and crash, the recovery report,
// engine statistics (the replayed access accounting included), the
// device access sequence, device counters and post-recovery
// non-volatile bytes match at every
// recovery worker count, for the indexed and the flat bitmap scan.
func TestRecoverMatchesReference(t *testing.T) {
	for _, flat := range []bool{false, true} {
		for seed := uint64(1); seed <= 4; seed++ {
			want := crashAndRecover(t, 0, seed, routed{reference: true, flatScan: flat})
			for _, shards := range []int{1, 2, 4, 8} {
				t.Run(fmt.Sprintf("flat=%v/seed%d/shards%d", flat, seed, shards), func(t *testing.T) {
					got := crashAndRecover(t, shards, seed, routed{flatScan: flat})
					if got.rep != want.rep {
						t.Errorf("recovery report:\n  got  %+v\n  want %+v", got.rep, want.rep)
					}
					if got.stats != want.stats {
						t.Errorf("engine stats:\n  got  %+v\n  want %+v", got.stats, want.stats)
					}
					if !slices.Equal(got.accesses, want.accesses) {
						t.Errorf("device access sequence differs (%d vs %d accesses)", len(got.accesses), len(want.accesses))
					}
					if got.dev != want.dev {
						t.Errorf("device counters:\n  got  %s\n  want %s", got.dev, want.dev)
					}
					if !bytes.Equal(got.snapshot, want.snapshot) {
						t.Error("post-recovery non-volatile bytes differ from the reference")
					}
				})
			}
		}
	}
}
