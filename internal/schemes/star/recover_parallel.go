package star

import (
	"sync"

	"nvmstar/internal/counter"
	"nvmstar/internal/secmem"
	"nvmstar/internal/sit"
)

// Parallel restore (steps 2+3 of Section III-F) for engines configured
// with Shards > 1. Each stale node's restoration is independent of the
// others' — the counter LSBs come from children's NVM copies, the MSBs
// from the node's own stale copy, and the parent counter needed for the
// MAC from either the parent's restored value or its pre-crash NVM copy
// — so the per-node content work fans out over worker goroutines. What
// must NOT fan out is the accounting: statistics and the device access
// hook (which drives machine timing) are part of the bit-identity
// contract, so the counted access sequence is replayed serially first,
// in exactly the order the serial algorithm issues it. The replay is a
// pure function of ids + geometry: which reads happen depends only on
// which children exist, never on NVM content.
//
// Content then runs in three passes:
//
//	D1 (parallel)  restore each node's counters from peeked NVM state.
//	               Valid because every serial step-2/step-3 read
//	               observes pre-step-3 NVM: ids are sorted level-
//	               ascending and a node's parent lives one level up, so
//	               parents are always written after their children read
//	               them.
//	D2 (parallel)  recompute each node's MAC field against the restored
//	               parent counter (from D1's array when the parent is
//	               itself stale, else its peeked NVM copy). Reads only
//	               D1-written counters and writes only MAC fields, with
//	               a barrier between the passes.
//	commit (serial) store the restored nodes in id order, matching the
//	               serial path's wear-bump sequence.
//
// MAC computations performed by workers merge into engine statistics in
// ascending worker order, mirroring Results.Accumulate's ascending-seed
// rule.
func (s *Scheme) restoreNodesParallel(ids []sit.NodeID, restored map[sit.NodeID]counter.Node, rep *secmem.RecoveryReport) {
	geo := s.e.Geometry()
	workers := s.e.Shards()

	// Serial accounting replay: step 2's reads ...
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
	// ... then step 3's per-node parent read + node write, interleaved
	// exactly as the serial loop interleaves them.
	for _, id := range ids {
		parent, _ := geo.Parent(id)
		if !geo.IsRoot(parent) {
			s.e.AccountMetaRead(parent)
			rep.NodeReads++
		}
		rep.MACComputes++
		s.e.AccountMetaWrite(id)
		rep.NodeWrites++
	}

	// idIndex lets D2 find a stale parent's D1-restored counters. Built
	// before the fan-out; read-only afterwards.
	idIndex := make(map[sit.NodeID]int, len(ids))
	for i, id := range ids {
		idIndex[id] = i
	}

	// Pass D1: counters.
	restoredArr := make([]counter.Node, len(ids))
	parallelIDs(len(ids), workers, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			id := ids[i]
			stale, _ := s.e.PeekMetaRaw(id)
			node := stale
			for slot := 0; slot < counter.Arity; slot++ {
				lsb, ok := s.peekChildLSB(id, slot)
				if !ok {
					continue
				}
				node.Counters[slot] = counter.CombineLSB(stale.Counters[slot], lsb)
			}
			restoredArr[i] = node
		}
	})

	// Pass D2: MAC fields. Workers read Counters (written in D1, now
	// quiescent) and write only their own chunk's MACField words.
	macCounts := make([]uint64, workers)
	parallelIDs(len(ids), workers, func(w, lo, hi int) {
		var buf [80]byte
		for i := lo; i < hi; i++ {
			id := ids[i]
			parent, slot := geo.Parent(id)
			var pctr uint64
			if geo.IsRoot(parent) {
				pctr = s.e.RootNode().Counters[slot]
			} else if j, ok := idIndex[parent]; ok {
				pctr = restoredArr[j].Counters[slot]
			} else {
				n, _ := s.e.PeekMetaRaw(parent)
				pctr = n.Counters[slot]
			}
			restoredArr[i].MACField = s.e.NodeMACFieldInto(&buf, id, restoredArr[i].Counters, pctr)
			macCounts[w]++
		}
	})
	for _, n := range macCounts {
		s.e.AddMACComputes(n)
	}

	// Serial commit pass, ascending id order.
	for i, id := range ids {
		s.e.CommitMetaRestored(id, restoredArr[i])
		restored[id] = restoredArr[i]
	}
}

// peekChildLSB is childLSB's content half: same child-existence and
// NVM-presence rules, no accounting, safe for concurrent workers.
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

// parallelIDs splits [0, n) into one contiguous chunk per worker and
// joins before returning. fn receives the worker index for per-worker
// accumulators.
func parallelIDs(n, workers int, fn func(worker, lo, hi int)) {
	if n == 0 {
		return
	}
	chunk := (n + workers - 1) / workers
	var wg sync.WaitGroup
	for w := 0; w*chunk < n; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			fn(w, lo, hi)
		}(w, lo, hi)
	}
	wg.Wait()
}
