package cachetree

import (
	"testing"
	"testing/quick"

	"nvmstar/internal/simcrypto"
)

func suite() simcrypto.Suite { return simcrypto.NewFast(99) }

// workerWidths are the BuildRoot fan-out widths every rebuild test
// runs at: inline, even and odd chunkings, and more workers than some
// levels have nodes.
var workerWidths = []int{1, 2, 3, 8}

func TestNewValidation(t *testing.T) {
	if _, err := New(suite(), 0); err == nil {
		t.Error("zero sets accepted")
	}
}

func TestPaperShape(t *testing.T) {
	// 512 KB, 8-way, 64 B lines -> 1024 sets -> 5 levels including
	// leaves (a 4-level 8-ary tree, Table I).
	tr, err := New(suite(), 1024)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Levels() != 5 {
		t.Fatalf("levels = %d, want 5", tr.Levels())
	}
}

func TestEmptySetMACIsZero(t *testing.T) {
	if SetMAC(suite(), nil) != 0 {
		t.Fatal("empty set-MAC not zero")
	}
}

func TestRootChangesWithDirtyContent(t *testing.T) {
	tr, _ := New(suite(), 16)
	empty := tr.Root()
	tr.UpdateSet(3, []SetEntry{{Addr: 0x1000, MAC: 7}})
	if tr.Root() == empty {
		t.Fatal("root unchanged after update")
	}
	tr.UpdateSet(3, nil)
	if tr.Root() != empty {
		t.Fatal("root did not return to empty state")
	}
}

func TestRootSensitiveToOrderAndContent(t *testing.T) {
	s := suite()
	a := SetMAC(s, []SetEntry{{1, 10}, {2, 20}})
	b := SetMAC(s, []SetEntry{{2, 20}, {1, 10}})
	if a == b {
		t.Fatal("set-MAC insensitive to order")
	}
	c := SetMAC(s, []SetEntry{{1, 10}, {2, 21}})
	if a == c {
		t.Fatal("set-MAC insensitive to MAC value")
	}
}

func TestIncrementalMatchesRebuild(t *testing.T) {
	// 1 set (the leaf is the root), 64 sets (an exact 8-ary shape) and
	// 100 sets (ragged: 100 -> 13 -> 2 -> 1, zero-padded last children).
	for _, numSets := range []int{1, 64, 100} {
		tr, _ := New(suite(), numSets)
		entries := map[int][]SetEntry{
			0:           {{Addr: 64, MAC: 1}, {Addr: 128, MAC: 2}},
			numSets / 2: {{Addr: 7 * 64, MAC: 3}},
			numSets - 1: {{Addr: 63 * 64, MAC: 4}},
		}
		for set, es := range entries {
			tr.UpdateSet(set, es)
		}
		for _, w := range workerWidths {
			rebuilt, err := BuildRoot(suite(), numSets, entries, w)
			if err != nil {
				t.Fatal(err)
			}
			if rebuilt != tr.Root() {
				t.Fatalf("numSets=%d workers=%d: incremental root != rebuilt root", numSets, w)
			}
		}
	}
}

func TestBuildRootSortsEntries(t *testing.T) {
	// BuildRoot must impose ascending-address order itself (recovery
	// discovers nodes in arbitrary order).
	sorted := map[int][]SetEntry{2: {{Addr: 64, MAC: 5}, {Addr: 128, MAC: 6}}}
	shuffled := map[int][]SetEntry{2: {{Addr: 128, MAC: 6}, {Addr: 64, MAC: 5}}}
	for _, w := range workerWidths {
		r1, _ := BuildRoot(suite(), 8, sorted, w)
		r2, _ := BuildRoot(suite(), 8, shuffled, w)
		if r1 != r2 {
			t.Fatalf("workers=%d: BuildRoot depends on input order", w)
		}
	}
}

func TestBuildRootRejectsBadSet(t *testing.T) {
	for _, w := range workerWidths {
		if _, err := BuildRoot(suite(), 8, map[int][]SetEntry{9: {{Addr: 1, MAC: 1}}}, w); err == nil {
			t.Fatalf("workers=%d: out-of-range set accepted", w)
		}
		if _, err := BuildRoot(suite(), 0, nil, w); err == nil {
			t.Fatalf("workers=%d: zero sets accepted", w)
		}
	}
}

func TestTamperDetection(t *testing.T) {
	base := map[int][]SetEntry{1: {{Addr: 64, MAC: 100}}}
	tampered := map[int][]SetEntry{1: {{Addr: 64, MAC: 101}}}
	moved := map[int][]SetEntry{2: {{Addr: 64, MAC: 100}}}
	for _, w := range workerWidths {
		r1, _ := BuildRoot(suite(), 8, base, w)
		r2, _ := BuildRoot(suite(), 8, tampered, w)
		if r1 == r2 {
			t.Fatalf("workers=%d: tampered MAC produced same root", w)
		}
		r3, _ := BuildRoot(suite(), 8, moved, w)
		if r1 == r3 {
			t.Fatalf("workers=%d: moved entry produced same root", w)
		}
	}
}

func TestIncrementalEqualsRebuildQuick(t *testing.T) {
	// Property: for random dirty-set contents, incremental updates and
	// from-scratch reconstruction agree on the root.
	f := func(ops []struct {
		Set  uint8
		Addr uint16
		MAC  uint64
	}) bool {
		const sets = 32
		tr, _ := New(suite(), sets)
		state := make(map[int][]SetEntry)
		for _, op := range ops {
			set := int(op.Set) % sets
			// Model each op as replacing the set's dirty list with a
			// single entry whose address is canonical for the set.
			entry := SetEntry{Addr: uint64(op.Addr), MAC: op.MAC}
			state[set] = []SetEntry{entry}
			tr.UpdateSet(set, state[set])
		}
		for _, w := range workerWidths {
			rebuilt, err := BuildRoot(suite(), sets, state, w)
			if err != nil || rebuilt != tr.Root() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestBranchUpdateCost(t *testing.T) {
	// Incremental updates must touch O(levels) nodes, not O(sets).
	tr, _ := New(suite(), 1024)
	before := tr.Stats()
	tr.UpdateSet(512, []SetEntry{{Addr: 64, MAC: 1}})
	delta := tr.Stats().NodeHashes - before.NodeHashes
	if delta > uint64(tr.Levels()) {
		t.Fatalf("branch update hashed %d nodes, want <= %d", delta, tr.Levels())
	}
}

func TestFanOutCoversRangeOnce(t *testing.T) {
	for _, n := range []int{0, 1, 7, 8, 100} {
		for _, w := range []int{-1, 0, 1, 2, 3, 8, 200} {
			hits := make([]int32, n)
			FanOut(n, w, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					hits[i]++ // chunks are disjoint, so no two goroutines share an index
				}
			})
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("n=%d workers=%d: index %d visited %d times", n, w, i, h)
				}
			}
		}
	}
}
