// Package star implements STAR (SIT Trace And Recovery), the paper's
// contribution: a write-friendly, fast-recovery persistence scheme for
// security metadata in non-volatile memories.
//
// Three mechanisms cooperate:
//
//  1. Counter-MAC synergization (Section III-B). Persisting a line
//     modifies exactly one counter in its parent node (the lazy SIT
//     update). STAR stores the 10 LSBs of that freshly bumped counter
//     in the unused bits of the persisted line's own 64-bit MAC field,
//     so the parent's modification reaches NVM atomically with the
//     child — zero extra writes. The engine performs the packing (it
//     owns the MAC fields); STAR enables it via Synergize.
//
//  2. Bitmap lines in ADR (Sections III-C/D). One bit per metadata
//     line marks "stale in NVM"; bits flip only on clean/dirty
//     transitions. Sixteen bitmap lines live in the battery-backed ADR
//     domain and spill to the recovery area (RA) under LRU; a
//     multi-layer index (on-chip L3 register → L2 → L1) lets recovery
//     read only the non-zero lines.
//
//  3. Cache-tree (Section III-E). Set-MACs over the dirty metadata
//     lines of each cache set, hashed into a small fixed-shape merkle
//     tree whose root sits in an on-chip non-volatile register.
//     Recovery rebuilds the root from the restored nodes; any replay
//     or tampering during recovery yields a mismatch.
//
// Recovery (Section III-F) restores each stale node bottom-up: the
// MSBs come from its stale NVM copy, the LSBs of its eight counters
// from its eight children's MAC fields, and its MAC is recomputed from
// the (restored) parent counter — ten line reads per stale node.
package star

import (
	"fmt"
	"sort"

	"nvmstar/internal/bitmap"
	"nvmstar/internal/cachetree"
	"nvmstar/internal/counter"
	"nvmstar/internal/memline"
	"nvmstar/internal/nvm"
	"nvmstar/internal/secmem"
	"nvmstar/internal/sit"
)

// Scheme is STAR.
type Scheme struct {
	e       *secmem.Engine
	tracker *bitmap.Tracker
	tree    *cachetree.Tree
	// treeRoot models the on-chip non-volatile root register: it is
	// kept equal to tree.Root() during execution and is all that
	// survives of the cache-tree at a crash.
	treeRoot  uint64
	bitmapCfg bitmap.Config
	crashed   bool
	// conv is the reused secmem→cachetree entry conversion buffer;
	// updateSet runs on every metadata modification and must not
	// allocate steady-state.
	conv []cachetree.SetEntry
}

// New returns a STAR scheme bound to the engine, with cfg sizing the
// ADR bitmap-line allocation (bitmap.DefaultConfig for the paper's
// 14+2 split).
func New(e *secmem.Engine, cfg bitmap.Config) (*Scheme, error) {
	tracker, err := bitmap.NewTracker(e.Geometry(), e.Device(), cfg)
	if err != nil {
		return nil, err
	}
	tree, err := cachetree.New(e.Suite(), e.MetaCache().NumSets())
	if err != nil {
		return nil, err
	}
	return &Scheme{e: e, tracker: tracker, tree: tree, treeRoot: tree.Root(), bitmapCfg: cfg}, nil
}

// Name implements secmem.Scheme.
func (*Scheme) Name() string { return "star" }

// Synergize implements secmem.Scheme: STAR's defining property.
func (*Scheme) Synergize() bool { return true }

// Tracker exposes the bitmap-line tracker (for the Table II and
// Fig. 10 measurements).
func (s *Scheme) Tracker() *bitmap.Tracker { return s.tracker }

// CacheTree exposes the cache-tree (for ablation measurements).
func (s *Scheme) CacheTree() *cachetree.Tree { return s.tree }

// CacheTreeRoot returns the on-chip root register value.
func (s *Scheme) CacheTreeRoot() uint64 { return s.treeRoot }

// OnMetaDirty implements secmem.Scheme: record the line's location in
// the bitmap lines — the only moment STAR touches them.
func (s *Scheme) OnMetaDirty(_ sit.NodeID, metaIdx uint64, _ int) {
	s.tracker.MarkStale(metaIdx)
}

// OnMetaModified implements secmem.Scheme: refresh the set-MAC of the
// modified line's cache set and the branch to the cache-tree root.
func (s *Scheme) OnMetaModified(_ sit.NodeID, set int) {
	s.updateSet(set)
}

// OnMetaClean implements secmem.Scheme: the NVM copy is fresh again —
// clear the bitmap bit and drop the line from its set-MAC.
func (s *Scheme) OnMetaClean(_ sit.NodeID, metaIdx uint64, set int, _ bool) {
	s.tracker.MarkFresh(metaIdx)
	s.updateSet(set)
}

func (s *Scheme) updateSet(set int) {
	entries := s.e.DirtySetEntries(set)
	s.conv = s.conv[:0]
	for _, en := range entries {
		s.conv = append(s.conv, cachetree.SetEntry{Addr: en.Addr, MAC: en.MAC})
	}
	s.tree.UpdateSet(set, s.conv)
	s.treeRoot = s.tree.Root()
}

// OnChildPersisted implements secmem.Scheme: the parent's modification
// already travelled inside the child's MAC field; nothing extra to do.
func (*Scheme) OnChildPersisted(sit.NodeID) error { return nil }

// Reset implements secmem.Scheme: restore just-constructed state for
// machine reuse, reusing the tracker and cache-tree storage. The RA
// bitmap lines in NVM are already gone — the engine resets the device
// before the scheme — and the cache-tree re-derives from the engine's
// (possibly new) per-seed suite.
func (s *Scheme) Reset() {
	s.tracker.Reset()
	s.tree.Reset(s.e.Suite())
	s.treeRoot = s.tree.Root()
	s.crashed = false
	s.conv = s.conv[:0]
}

// Fork implements secmem.Scheme: rebind to the forked engine with deep
// copies of the bitmap tracker (its ADR load/spill closures rebuilt
// against the forked device), the cache-tree, the root register and the
// crash flag. The conversion buffer is per-operation scratch and starts
// empty.
func (s *Scheme) Fork(e *secmem.Engine) secmem.Scheme {
	tracker, err := s.tracker.Fork(e.Device())
	if err != nil {
		// Fork copies an already-validated tracker; a failure here is a
		// programming error, not a runtime condition.
		panic(fmt.Sprintf("star: tracker fork: %v", err))
	}
	return &Scheme{
		e:         e,
		tracker:   tracker,
		tree:      s.tree.Fork(),
		treeRoot:  s.treeRoot,
		bitmapCfg: s.bitmapCfg,
		crashed:   s.crashed,
	}
}

// OnCrash implements secmem.Scheme: battery-dump the ADR bitmap lines
// into the recovery area. The L3 index register and the cache-tree
// root survive on chip.
func (s *Scheme) OnCrash() {
	s.tracker.Crash()
	s.crashed = true
}

// Recover implements secmem.Scheme (Section III-F).
func (s *Scheme) Recover() (*secmem.RecoveryReport, error) {
	return s.recover(false)
}

// RecoverFlatScan is Recover without the multi-layer index: every L1
// bitmap line in the RA is read. It quantifies the index's benefit
// (the ablation benchmark); results are identical.
func (s *Scheme) RecoverFlatScan() (*secmem.RecoveryReport, error) {
	return s.recover(true)
}

func (s *Scheme) recover(flatScan bool) (*secmem.RecoveryReport, error) {
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
	// Bottom-up: counter blocks first. (Counter restoration is order
	// independent — every child's LSB slot in NVM is current — but
	// the paper restores bottom-up, and this order fixes the counted
	// access sequence below.)
	sort.Slice(ids, func(i, j int) bool {
		if ids[i].Level != ids[j].Level {
			return ids[i].Level < ids[j].Level
		}
		return ids[i].Index < ids[j].Index
	})

	// Steps 2+3: restore counters (stale MSBs + children's LSBs), then
	// recompute MACs against (restored) parent counters and write the
	// nodes back. Each node's content is independent of the others' —
	// the LSBs come from its children's NVM copies, the MSBs from its own
	// stale copy, the parent counter from the parent's restored value or
	// its NVM copy — so the content work fans out over the engine's
	// recovery workers (inline at Shards 0/1). The accounting does not:
	// statistics and the device access hook (which drives machine
	// timing) are observable, so the counted access sequence is replayed
	// serially first. It is a pure function of ids and geometry — which
	// reads happen depends only on which children exist, never on NVM
	// content. Step 2 reads each node and its existing children ...
	workers := s.e.Shards()
	for _, id := range ids {
		s.e.AccountMetaRead(id)
		rep.NodeReads++
		for slot := 0; slot < counter.Arity; slot++ {
			if id.Level == 0 {
				if childAddr, exists := geo.ChildDataAddr(id, slot); exists {
					s.e.AccountDataRead(childAddr)
					rep.NodeReads++
				}
			} else if child, exists := geo.ChildNode(id, slot); exists {
				s.e.AccountMetaRead(child)
				rep.NodeReads++
			}
		}
	}
	// ... then step 3 reads each node's parent and writes the node. The
	// parent read is counted even when the parent is itself stale — its
	// NVM copy carries the MSB context — matching the paper's
	// ten-reads-per-stale-node accounting.
	for _, id := range ids {
		if parent, _ := geo.Parent(id); !geo.IsRoot(parent) {
			s.e.AccountMetaRead(parent)
			rep.NodeReads++
		}
		rep.MACComputes++
		s.e.AccountMetaWrite(id)
		rep.NodeWrites++
	}

	// Pass D1: counters, from peeked NVM state. Every peek sees the
	// crash-time NVM image because nothing is committed until after D2.
	restored := make([]counter.Node, len(ids))
	cachetree.FanOut(len(ids), workers, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			id := ids[i]
			stale, _ := s.e.PeekMetaRaw(id)
			node := stale
			for slot := 0; slot < counter.Arity; slot++ {
				lsb, ok := s.peekChildLSB(id, slot)
				if !ok {
					// Child never persisted: the counter was never bumped
					// since the stale copy; keep the stale value.
					continue
				}
				node.Counters[slot] = counter.CombineLSB(stale.Counters[slot], lsb)
			}
			restored[i] = node
		}
	})

	// Pass D2: MAC fields. Workers read Counters (written in D1, now
	// quiescent) and write only their own chunk's MACField words; a stale
	// parent's counter comes from D1 through idIndex.
	idIndex := make(map[sit.NodeID]int, len(ids))
	for i, id := range ids {
		idIndex[id] = i
	}
	cachetree.FanOut(len(ids), workers, func(lo, hi int) {
		var buf [80]byte
		for i := lo; i < hi; i++ {
			id := ids[i]
			parent, slot := geo.Parent(id)
			var pctr uint64
			if geo.IsRoot(parent) {
				pctr = s.e.RootNode().Counters[slot]
			} else if j, ok := idIndex[parent]; ok {
				pctr = restored[j].Counters[slot]
			} else {
				n, _ := s.e.PeekMetaRaw(parent)
				pctr = n.Counters[slot]
			}
			restored[i].MACField = s.e.NodeMACFieldInto(&buf, id, restored[i].Counters, pctr)
		}
	})
	s.e.AddMACComputes(uint64(len(ids)))

	// Commit in ascending id order, the order the replay accounted.
	for i, id := range ids {
		s.e.CommitMetaRestored(id, restored[i])
	}

	// Step 4: rebuild the cache-tree from the restored nodes — the
	// same set/address ordering used before the crash — and compare
	// roots. Any replay or tampering of recovery inputs surfaces here.
	perSet := make(map[int][]cachetree.SetEntry)
	for i, id := range ids {
		addr := geo.NodeAddr(id)
		set := s.e.MetaCache().SetIndex(addr)
		perSet[set] = append(perSet[set], cachetree.SetEntry{Addr: addr, MAC: restored[i].MACField})
	}
	root, err := cachetree.BuildRoot(s.e.Suite(), s.e.MetaCache().NumSets(), perSet, workers)
	if err != nil {
		return rep, err
	}
	if root != s.treeRoot {
		return rep, fmt.Errorf("%w: cache-tree root mismatch (stored %#x, rebuilt %#x)",
			secmem.ErrRecoveryVerification, s.treeRoot, root)
	}
	rep.Verified = true

	// Reset volatile tracking structures for continued execution: all
	// metadata in NVM is fresh now.
	if err := s.reset(scan.StaleMetaIdx); err != nil {
		return rep, err
	}
	return rep, nil
}

// peekChildLSB reads the 10-bit LSB slot persisted in the MAC field of
// the slot'th child of id, without counting the access (the replay in
// recover counts it). ok is false when the child does not exist or was
// never written to NVM. Safe for concurrent recovery workers.
func (s *Scheme) peekChildLSB(id sit.NodeID, slot int) (uint64, bool) {
	geo := s.e.Geometry()
	if id.Level == 0 {
		childAddr, exists := geo.ChildDataAddr(id, slot)
		if !exists {
			return 0, false
		}
		if _, present := s.e.Device().Peek(childAddr); !present {
			return 0, false
		}
		macField, _ := s.e.PeekDataMAC(childAddr)
		return counter.LSB10(macField), true
	}
	child, exists := geo.ChildNode(id, slot)
	if !exists {
		return 0, false
	}
	node, present := s.e.PeekMetaRaw(child)
	if !present {
		return 0, false
	}
	return counter.LSB10(node.MACField), true
}

// reset rewinds the tracker and cache-tree after a successful recovery
// so the engine can keep executing. The recovery-area bitmap lines
// consumed by the scan are zeroed (the restored metadata is fresh);
// this cleanup happens once, after the timed recovery, so it is
// applied out of band. The in-controller structures then rewind in
// place through the same reset paths machine reuse takes.
func (s *Scheme) reset(staleMetaIdx []uint64) error {
	geo := s.e.Geometry()
	dev := s.e.Device()
	cleared := make(map[uint64]bool)
	for _, metaIdx := range staleMetaIdx {
		l1 := metaIdx / memline.Bits
		if !cleared[l1] {
			cleared[l1] = true
			dev.Poke(geo.RAL1Addr(l1), memline.Line{})
			dev.RecordOOB(nvm.CauseRecovery)
		}
	}
	for l2 := uint64(0); l2 < geo.RAL2Lines(); l2++ {
		dev.Poke(geo.RAL2Addr(l2), memline.Line{})
		dev.RecordOOB(nvm.CauseRecovery)
	}
	s.Reset()
	return nil
}
