// Package cache implements a generic set-associative, write-back cache
// with LRU replacement at 64-byte line granularity. The same type
// serves as the per-core L1/L2 caches, the shared L3, and the security
// metadata cache in the memory controller; the paper's schemes differ
// only in what they do on the eviction and dirty-transition events this
// package surfaces.
package cache

import (
	"fmt"

	"nvmstar/internal/memline"
)

// Entry is the payload of one cache slot. The slot's address, valid
// and pinned bits and LRU stamp live in the cache's compact per-slot
// arrays, so a set scan never touches the 64-byte lines.
type Entry struct {
	Data  memline.Line
	Dirty bool
}

// Tag bits. Line addresses are 64-byte aligned, so a slot's tag is its
// address with the valid and pinned flags in the low bits; 0 is an
// invalid slot.
const (
	tagValid  uint64 = 1
	tagPinned uint64 = 2
	tagFlags         = tagValid | tagPinned
)

// Config sizes a cache.
type Config struct {
	SizeBytes int // total capacity
	Ways      int // associativity
}

// Stats counts cache events.
type Stats struct {
	Hits        uint64
	Misses      uint64
	Evictions   uint64 // total evictions of valid lines
	DirtyEvicts uint64 // evictions that required a write-back
}

// HitRatio returns hits/(hits+misses), or 0 for an untouched cache.
func (s Stats) HitRatio() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// EvictFn receives a line leaving the cache. dirty indicates the line
// was modified and must be written to the next level.
type EvictFn func(addr uint64, data memline.Line, dirty bool)

// Cache is a set-associative write-back cache. It is not safe for
// concurrent use; the simulator is single-goroutine by design so every
// run is deterministic.
//
// Slots are stored structure-of-arrays: slot set*ways+way has its tag
// in tags, its LRU stamp in stamps and its payload in lines. Lookups
// scan only tags (one host cache line for 8 ways); victim selection
// adds stamps.
type Cache struct {
	cfg     Config
	numSets int
	tags    []uint64 // line address | tagValid | tagPinned; 0 = invalid
	stamps  []uint64 // global LRU stamp; larger = more recently used
	lines   []Entry
	clock   uint64
	stats   Stats
	dirty   int // number of dirty lines currently held
}

// New creates a cache. SizeBytes must be a multiple of Ways*64 and the
// resulting set count must be a power of two (so set indexing is a
// mask, like real hardware).
func New(cfg Config) (*Cache, error) {
	if cfg.Ways <= 0 {
		return nil, fmt.Errorf("cache: ways must be positive, got %d", cfg.Ways)
	}
	lineCapacity := cfg.SizeBytes / memline.Size
	if lineCapacity <= 0 || cfg.SizeBytes%memline.Size != 0 {
		return nil, fmt.Errorf("cache: size %d is not a positive multiple of %d", cfg.SizeBytes, memline.Size)
	}
	if lineCapacity%cfg.Ways != 0 {
		return nil, fmt.Errorf("cache: %d lines not divisible by %d ways", lineCapacity, cfg.Ways)
	}
	numSets := lineCapacity / cfg.Ways
	if numSets&(numSets-1) != 0 {
		return nil, fmt.Errorf("cache: set count %d is not a power of two", numSets)
	}
	return &Cache{
		cfg: cfg, numSets: numSets,
		tags:   make([]uint64, lineCapacity),
		stamps: make([]uint64, lineCapacity),
		lines:  make([]Entry, lineCapacity),
	}, nil
}

// MustNew is New but panics on error, for tests and fixed configs.
func MustNew(cfg Config) *Cache {
	c, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// NumSets returns the number of sets.
func (c *Cache) NumSets() int { return c.numSets }

// Ways returns the associativity.
func (c *Cache) Ways() int { return c.cfg.Ways }

// Lines returns the total line capacity.
func (c *Cache) Lines() int { return len(c.tags) }

// SetIndex returns the set an address maps to.
func (c *Cache) SetIndex(addr uint64) int {
	return int(memline.Index(memline.Align(addr))) & (c.numSets - 1)
}

// Stats returns a copy of the event counters.
func (c *Cache) Stats() Stats { return c.stats }

// DirtyCount returns the number of dirty lines currently cached.
func (c *Cache) DirtyCount() int { return c.dirty }

// find returns the slot holding the line-aligned addr, or -1.
func (c *Cache) find(addr uint64) int {
	base := c.SetIndex(addr) * c.cfg.Ways
	want := addr | tagValid
	for i, t := range c.tags[base : base+c.cfg.Ways] {
		if t&^tagPinned == want {
			return base + i
		}
	}
	return -1
}

// touch makes a slot the most recently used.
func (c *Cache) touch(slot int) {
	c.clock++
	c.stamps[slot] = c.clock
}

// Lookup returns the cached line and whether it was present, updating
// LRU order and hit/miss statistics.
func (c *Cache) Lookup(addr uint64) (*Entry, bool) {
	if i := c.find(memline.Align(addr)); i >= 0 {
		c.touch(i)
		c.stats.Hits++
		return &c.lines[i], true
	}
	c.stats.Misses++
	return nil, false
}

// Peek returns the cached entry without touching LRU order or stats.
func (c *Cache) Peek(addr uint64) (*Entry, bool) {
	if i := c.find(memline.Align(addr)); i >= 0 {
		return &c.lines[i], true
	}
	return nil, false
}

// Contains reports presence without touching LRU order or stats.
func (c *Cache) Contains(addr uint64) bool {
	return c.find(memline.Align(addr)) >= 0
}

// Insert places a line in the cache, evicting the set's LRU victim if
// needed (reported through onEvict, which may be nil). Inserting an
// address that is already present overwrites it in place.
func (c *Cache) Insert(addr uint64, data memline.Line, dirty bool, onEvict EvictFn) *Entry {
	addr = memline.Align(addr)
	if i := c.find(addr); i >= 0 {
		e := &c.lines[i]
		if dirty && !e.Dirty {
			c.dirty++
		}
		e.Data = data
		e.Dirty = e.Dirty || dirty
		c.touch(i)
		return e
	}
	v := c.victimSlot(c.SetIndex(addr))
	if v < 0 {
		panic(fmt.Sprintf("cache: every way of set %d is pinned", c.SetIndex(addr)))
	}
	if t := c.tags[v]; t != 0 {
		victim := &c.lines[v]
		c.stats.Evictions++
		if victim.Dirty {
			c.stats.DirtyEvicts++
			c.dirty--
		}
		if onEvict != nil {
			onEvict(t&^tagFlags, victim.Data, victim.Dirty)
		}
	}
	c.tags[v] = addr | tagValid
	c.touch(v)
	e := &c.lines[v]
	*e = Entry{Data: data, Dirty: dirty}
	if dirty {
		c.dirty++
	}
	return e
}

// victimSlot returns the slot Insert would fill in this set: the first
// invalid slot, else the least recently used unpinned slot (the first
// of equal stamps), or -1 if every slot is pinned.
func (c *Cache) victimSlot(set int) int {
	victim := -1
	for i := set * c.cfg.Ways; i < (set+1)*c.cfg.Ways; i++ {
		t := c.tags[i]
		if t == 0 {
			return i
		}
		if t&tagPinned != 0 {
			continue
		}
		if victim < 0 || c.stamps[i] < c.stamps[victim] {
			victim = i
		}
	}
	return victim
}

// VictimFor previews the eviction Insert(addr, ...) would perform:
// the address and entry of the valid line that would leave the cache,
// or ok=false when the insertion needs no eviction (the address is
// already present, or a free slot exists). The engine uses it to flush
// dirty victims before the insertion, so dirty lines never leave the
// cache unwritten.
func (c *Cache) VictimFor(addr uint64) (vaddr uint64, victim *Entry, ok bool) {
	addr = memline.Align(addr)
	if c.find(addr) >= 0 {
		return 0, nil, false
	}
	v := c.victimSlot(c.SetIndex(addr))
	if v < 0 || c.tags[v] == 0 {
		return 0, nil, false
	}
	return c.tags[v] &^ tagFlags, &c.lines[v], true
}

// Pin exempts a cached line from victim selection, returning whether
// it was present. Pins do not nest: one Unpin releases the line.
func (c *Cache) Pin(addr uint64) bool {
	i := c.find(memline.Align(addr))
	if i < 0 {
		return false
	}
	c.tags[i] |= tagPinned
	return true
}

// Unpin releases a pinned line.
func (c *Cache) Unpin(addr uint64) {
	if i := c.find(memline.Align(addr)); i >= 0 {
		c.tags[i] &^= tagPinned
	}
}

// IsPinned reports whether a cached line is pinned.
func (c *Cache) IsPinned(addr uint64) bool {
	i := c.find(memline.Align(addr))
	return i >= 0 && c.tags[i]&tagPinned != 0
}

// MarkDirty marks a cached line dirty, returning whether the line was
// present and whether this was a clean-to-dirty transition. The
// transition signal is what STAR's bitmap lines track.
func (c *Cache) MarkDirty(addr uint64) (present, transition bool) {
	i := c.find(memline.Align(addr))
	if i < 0 {
		return false, false
	}
	return true, c.MarkEntryDirty(&c.lines[i])
}

// MarkEntryDirty is MarkDirty through an entry handle the caller
// already holds (from Lookup, Peek or Insert), skipping the set scan.
// The handle must come from this cache and still be valid.
func (c *Cache) MarkEntryDirty(e *Entry) (transition bool) {
	transition = !e.Dirty
	if transition {
		c.dirty++
	}
	e.Dirty = true
	return transition
}

// CleanLine clears the dirty bit of a cached line (after a write-back
// that did not evict, e.g. a flush), returning whether it was dirty.
func (c *Cache) CleanLine(addr uint64) (wasDirty bool) {
	i := c.find(memline.Align(addr))
	if i < 0 {
		return false
	}
	return c.CleanEntry(&c.lines[i])
}

// CleanEntry is CleanLine through an entry handle the caller already
// holds, skipping the set scan.
func (c *Cache) CleanEntry(e *Entry) (wasDirty bool) {
	wasDirty = e.Dirty
	if e.Dirty {
		c.dirty--
	}
	e.Dirty = false
	return wasDirty
}

// Invalidate removes a line from the cache without writing it back and
// returns the entry contents if it was present. Cross-core migration
// and crash modeling use it.
func (c *Cache) Invalidate(addr uint64) (Entry, bool) {
	i := c.find(memline.Align(addr))
	if i < 0 {
		return Entry{}, false
	}
	c.tags[i] = 0
	if c.lines[i].Dirty {
		c.dirty--
	}
	return c.lines[i], true
}

// FlushAll writes back every dirty line through onEvict and marks the
// whole cache clean but still resident. A nil onEvict just cleans.
func (c *Cache) FlushAll(onEvict EvictFn) {
	for i, t := range c.tags {
		if e := &c.lines[i]; t != 0 && e.Dirty {
			if onEvict != nil {
				onEvict(t&^tagFlags, e.Data, true)
			}
			e.Dirty = false
			c.dirty--
		}
	}
}

// DropAll invalidates every line without write-back: the cache's
// contents vanish, as volatile state does at a crash. Only the tags
// are cleared: nothing reads the payload or stamp of an invalid slot,
// and Insert overwrites both when it fills one.
func (c *Cache) DropAll() {
	clear(c.tags)
	c.dirty = 0
}

// Reset restores the cache to its just-constructed state — every line
// invalid, LRU clock and statistics zeroed — reusing the slot arrays.
// The LRU clock must rewind along with the entries: victim selection
// compares stamps, so a stale clock would change eviction order
// relative to a fresh cache.
func (c *Cache) Reset() {
	c.DropAll()
	c.clock = 0
	c.stats = Stats{}
}

// Fork returns a deep copy of the cache: same contents, LRU order,
// pins, dirty bits and statistics, in freshly allocated storage. The
// copy and the original may then be used from different goroutines.
func (c *Cache) Fork() *Cache {
	f := *c
	f.tags = append([]uint64(nil), c.tags...)
	f.stamps = append([]uint64(nil), c.stamps...)
	f.lines = append([]Entry(nil), c.lines...)
	return &f
}

// Range calls fn for every valid entry with its address. Iteration
// order is by set then way, which is deterministic.
func (c *Cache) Range(fn func(addr uint64, e *Entry)) {
	for i, t := range c.tags {
		if t != 0 {
			fn(t&^tagFlags, &c.lines[i])
		}
	}
}

// SlotOf returns the (set, way) position of a cached address. The
// Anubis baseline keys its shadow-table entries by cache slot.
func (c *Cache) SlotOf(addr uint64) (set, way int, ok bool) {
	i := c.find(memline.Align(addr))
	if i < 0 {
		return 0, 0, false
	}
	return i / c.cfg.Ways, i % c.cfg.Ways, true
}
