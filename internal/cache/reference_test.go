package cache

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"nvmstar/internal/memline"
)

// refCache is the array-of-structs layout Cache replaced, kept as an
// executable specification: one struct per slot holding the address,
// payload, valid/pinned bits and LRU stamp. Its victim is the first
// invalid slot, else the unpinned slot with the lowest stamp.
type refCache struct {
	ways  int
	sets  [][]refEntry
	clock uint64
	stats Stats
	dirty int
}

type refEntry struct {
	addr          uint64
	data          memline.Line
	dirty         bool
	valid, pinned bool
	lru           uint64
}

func newRef(cfg Config) *refCache {
	n := cfg.SizeBytes / memline.Size / cfg.Ways
	r := &refCache{ways: cfg.Ways, sets: make([][]refEntry, n)}
	for i := range r.sets {
		r.sets[i] = make([]refEntry, cfg.Ways)
	}
	return r
}

func (r *refCache) set(addr uint64) int { return int(addr/memline.Size) & (len(r.sets) - 1) }

func (r *refCache) find(addr uint64) *refEntry {
	set := r.sets[r.set(addr)]
	for i := range set {
		if set[i].valid && set[i].addr == addr {
			return &set[i]
		}
	}
	return nil
}

func (r *refCache) victim(addr uint64) *refEntry {
	var v *refEntry
	set := r.sets[r.set(addr)]
	for i := range set {
		e := &set[i]
		if !e.valid {
			return e
		}
		if !e.pinned && (v == nil || e.lru < v.lru) {
			v = e
		}
	}
	return v
}

func (r *refCache) lookup(addr uint64) *refEntry {
	if e := r.find(addr); e != nil {
		r.clock++
		e.lru = r.clock
		r.stats.Hits++
		return e
	}
	r.stats.Misses++
	return nil
}

func (r *refCache) insert(addr uint64, data memline.Line, dirty bool, onEvict EvictFn) *refEntry {
	if e := r.find(addr); e != nil {
		if dirty && !e.dirty {
			r.dirty++
		}
		e.data, e.dirty = data, e.dirty || dirty
		r.clock++
		e.lru = r.clock
		return e
	}
	v := r.victim(addr)
	if v.valid {
		r.stats.Evictions++
		if v.dirty {
			r.stats.DirtyEvicts++
			r.dirty--
		}
		onEvict(v.addr, v.data, v.dirty)
	}
	r.clock++
	*v = refEntry{addr: addr, data: data, dirty: dirty, valid: true, lru: r.clock}
	if dirty {
		r.dirty++
	}
	return v
}

func (r *refCache) markDirty(e *refEntry) bool {
	t := !e.dirty
	if t {
		r.dirty++
	}
	e.dirty = true
	return t
}

func (r *refCache) clean(e *refEntry) bool {
	was := e.dirty
	if was {
		r.dirty--
	}
	e.dirty = false
	return was
}

func (r *refCache) flushAll(onEvict EvictFn) {
	for s := range r.sets {
		for i := range r.sets[s] {
			if e := &r.sets[s][i]; e.valid && e.dirty {
				onEvict(e.addr, e.data, true)
				e.dirty = false
				r.dirty--
			}
		}
	}
}

func (r *refCache) dropAll() {
	for s := range r.sets {
		clear(r.sets[s])
	}
	r.dirty = 0
}

func (r *refCache) fork() *refCache {
	f := *r
	f.sets = make([][]refEntry, len(r.sets))
	for i := range f.sets {
		f.sets[i] = append([]refEntry(nil), r.sets[i]...)
	}
	return &f
}

// diffPair drives a Cache and a refCache with the same operations and
// records every observable result of both into logs that must match.
type diffPair struct {
	c        *Cache
	r        *refCache
	got      []string
	want     []string
	pinned   []uint64 // addresses pinned and not yet unpinned by the driver
	maxPins  int
	addrSpan int // addresses are line indices in [0, addrSpan)
}

func (p *diffPair) logf(dst *[]string, format string, args ...any) {
	*dst = append(*dst, fmt.Sprintf(format, args...))
}

func (p *diffPair) evictLogs() (EvictFn, EvictFn) {
	return func(a uint64, d memline.Line, dirty bool) { p.logf(&p.got, "evict %#x %x %v", a, d[:2], dirty) },
		func(a uint64, d memline.Line, dirty bool) { p.logf(&p.want, "evict %#x %x %v", a, d[:2], dirty) }
}

// step applies one random operation to both caches.
func (p *diffPair) step(rng *rand.Rand) {
	addr := uint64(rng.IntN(p.addrSpan)) * memline.Size
	var line memline.Line
	line[0], line[1] = byte(rng.Uint32()), byte(rng.Uint32())
	gotEvict, wantEvict := p.evictLogs()
	switch op := rng.IntN(100); {
	case op < 30:
		e, ok := p.c.Lookup(addr)
		re := p.r.lookup(addr)
		if ok {
			p.logf(&p.got, "lookup %#x %x %v", addr, e.Data[:2], e.Dirty)
		} else {
			p.logf(&p.got, "lookup %#x miss", addr)
		}
		if re != nil {
			p.logf(&p.want, "lookup %#x %x %v", addr, re.data[:2], re.dirty)
		} else {
			p.logf(&p.want, "lookup %#x miss", addr)
		}
		if ok && re != nil && op < 10 { // a Store through the handle
			e.Data[0], re.data[0] = line[0], line[0]
			p.logf(&p.got, "mark %v", p.c.MarkEntryDirty(e))
			p.logf(&p.want, "mark %v", p.r.markDirty(re))
		}
	case op < 55:
		dirty := op < 40
		e := p.c.Insert(addr, line, dirty, gotEvict)
		re := p.r.insert(addr, line, dirty, wantEvict)
		p.logf(&p.got, "insert %#x %x %v", addr, e.Data[:2], e.Dirty)
		p.logf(&p.want, "insert %#x %x %v", addr, re.data[:2], re.dirty)
	case op < 63:
		e, ok := p.c.Invalidate(addr)
		p.logf(&p.got, "invalidate %#x %x %v %v", addr, e.Data[:2], e.Dirty, ok)
		var re refEntry
		if f := p.r.find(addr); f != nil {
			re = *f
			if f.dirty {
				p.r.dirty--
			}
			*f = refEntry{}
		}
		p.logf(&p.want, "invalidate %#x %x %v %v", addr, re.data[:2], re.dirty, re.valid)
	case op < 68:
		if len(p.pinned) < p.maxPins {
			ok := p.c.Pin(addr)
			re := p.r.find(addr)
			if re != nil {
				re.pinned = true
				p.pinned = append(p.pinned, addr)
			}
			p.logf(&p.got, "pin %#x %v", addr, ok)
			p.logf(&p.want, "pin %#x %v", addr, re != nil)
		}
	case op < 72:
		if n := len(p.pinned); n > 0 {
			i := rng.IntN(n)
			addr = p.pinned[i]
			p.pinned = append(p.pinned[:i], p.pinned[i+1:]...)
			p.c.Unpin(addr)
			if re := p.r.find(addr); re != nil {
				re.pinned = false
			}
		}
	case op < 80:
		present, transition := p.c.MarkDirty(addr)
		p.logf(&p.got, "markdirty %#x %v %v", addr, present, transition)
		re := p.r.find(addr)
		p.logf(&p.want, "markdirty %#x %v %v", addr, re != nil, re != nil && p.r.markDirty(re))
	case op < 88:
		p.logf(&p.got, "clean %#x %v", addr, p.c.CleanLine(addr))
		re := p.r.find(addr)
		p.logf(&p.want, "clean %#x %v", addr, re != nil && p.r.clean(re))
	case op < 97:
		// Read-only probes.
		e, ok := p.c.Peek(addr)
		re := p.r.find(addr)
		if ok {
			p.logf(&p.got, "peek %#x %x %v pinned=%v", addr, e.Data[:2], e.Dirty, p.c.IsPinned(addr))
		} else {
			p.logf(&p.got, "peek %#x miss pinned=%v", addr, p.c.IsPinned(addr))
		}
		if re != nil {
			p.logf(&p.want, "peek %#x %x %v pinned=%v", addr, re.data[:2], re.dirty, re.pinned)
		} else {
			p.logf(&p.want, "peek %#x miss pinned=false", addr)
		}
		set, way, ok := p.c.SlotOf(addr)
		p.logf(&p.got, "slot %d %d %v", set, way, ok)
		if re != nil {
			rs := p.r.sets[p.r.set(addr)]
			p.logf(&p.want, "slot %d %d true", p.r.set(addr), slotIndex(rs, re))
		} else {
			p.logf(&p.want, "slot 0 0 false")
		}
		va, v, ok := p.c.VictimFor(addr)
		if ok {
			p.logf(&p.got, "victim %#x %x %v", va, v.Data[:2], v.Dirty)
		} else {
			p.logf(&p.got, "victim none")
		}
		if rv := p.r.victim(addr); re == nil && rv != nil && rv.valid {
			p.logf(&p.want, "victim %#x %x %v", rv.addr, rv.data[:2], rv.dirty)
		} else {
			p.logf(&p.want, "victim none")
		}
	case op < 98:
		p.c.FlushAll(gotEvict)
		p.r.flushAll(wantEvict)
	case op < 99:
		p.c.DropAll()
		p.r.dropAll()
		p.pinned = p.pinned[:0]
	default:
		p.c.Reset()
		p.r.dropAll()
		p.r.clock, p.r.stats = 0, Stats{}
		p.pinned = p.pinned[:0]
	}
	p.logf(&p.got, "stats %+v dirty=%d", p.c.Stats(), p.c.DirtyCount())
	p.logf(&p.want, "stats %+v dirty=%d", p.r.stats, p.r.dirty)
}

func slotIndex(set []refEntry, e *refEntry) int {
	for i := range set {
		if &set[i] == e {
			return i
		}
	}
	return -1
}

// check fails the test at the first divergence between the logs.
func (p *diffPair) check(t *testing.T, label string) {
	t.Helper()
	for i := range min(len(p.got), len(p.want)) {
		if p.got[i] != p.want[i] {
			t.Fatalf("%s: event %d: cache %q, reference %q", label, i, p.got[i], p.want[i])
		}
	}
	if len(p.got) != len(p.want) {
		t.Fatalf("%s: %d events, reference %d", label, len(p.got), len(p.want))
	}
}

// rangeContents lists a cache's valid lines in Range order, and the
// reference's in the same set-then-way order.
func rangeContents(c *Cache) []string {
	var out []string
	c.Range(func(a uint64, e *Entry) { out = append(out, fmt.Sprintf("%#x %x %v", a, e.Data[:2], e.Dirty)) })
	return out
}

func refContents(r *refCache) []string {
	var out []string
	for s := range r.sets {
		for _, e := range r.sets[s] {
			if e.valid {
				out = append(out, fmt.Sprintf("%#x %x %v", e.addr, e.data[:2], e.dirty))
			}
		}
	}
	return out
}

// TestDifferentialAgainstReference drives Cache and the array-of-structs
// reference through seeded random operation sequences, forking midway
// and diverging parent and child, and requires identical eviction
// callbacks, probe results, statistics and contents throughout.
func TestDifferentialAgainstReference(t *testing.T) {
	geoms := []Config{
		{SizeBytes: 64 * 32, Ways: 4}, // 8 sets
		{SizeBytes: 64 * 16, Ways: 2}, // 8 sets
		{SizeBytes: 64 * 64, Ways: 8}, // 8 sets
		{SizeBytes: 64 * 8, Ways: 8},  // 1 set: every address collides
	}
	for _, cfg := range geoms {
		for seed := uint64(1); seed <= 8; seed++ {
			name := fmt.Sprintf("%dx%d/seed%d", cfg.SizeBytes/64/cfg.Ways, cfg.Ways, seed)
			t.Run(name, func(t *testing.T) {
				rng := rand.New(rand.NewPCG(seed, uint64(cfg.Ways)))
				lines := cfg.SizeBytes / memline.Size
				parent := &diffPair{c: MustNew(cfg), r: newRef(cfg), maxPins: cfg.Ways - 1, addrSpan: 3 * lines}
				for range 1500 {
					parent.step(rng)
				}
				parent.check(t, "before fork")
				child := &diffPair{c: parent.c.Fork(), r: parent.r.fork(), maxPins: parent.maxPins,
					addrSpan: parent.addrSpan, pinned: append([]uint64(nil), parent.pinned...)}
				childRNG := rand.New(rand.NewPCG(seed, 99))
				for range 1500 {
					parent.step(rng)
					child.step(childRNG)
				}
				parent.check(t, "parent after fork")
				child.check(t, "child after fork")
				for _, p := range []*diffPair{parent, child} {
					got, want := rangeContents(p.c), refContents(p.r)
					if fmt.Sprint(got) != fmt.Sprint(want) {
						t.Fatalf("Range: %v, reference %v", got, want)
					}
				}
			})
		}
	}
}

// TestDroppedSlotsHoldNothing pins the DropAll/Reset shortcut of
// clearing only the tags: the stale payloads left behind must be
// unobservable.
func TestDroppedSlotsHoldNothing(t *testing.T) {
	cfg := Config{SizeBytes: 64 * 8, Ways: 2} // 4 sets
	fill := func(c *Cache) {
		for a := uint64(0); a < 8; a++ {
			c.Insert(a*64, memline.Line{byte(a + 1)}, true, nil)
		}
		c.Pin(0)
	}
	for _, drop := range []struct {
		name string
		fn   func(*Cache)
	}{{"DropAll", (*Cache).DropAll}, {"Reset", (*Cache).Reset}} {
		t.Run(drop.name, func(t *testing.T) {
			c := MustNew(cfg)
			fill(c)
			drop.fn(c)
			for a := uint64(0); a < 8; a++ {
				if c.Contains(a * 64) {
					t.Fatalf("Contains(%#x) after %s", a*64, drop.name)
				}
				if _, ok := c.Peek(a * 64); ok {
					t.Fatalf("Peek(%#x) hit after %s", a*64, drop.name)
				}
			}
			c.Range(func(a uint64, _ *Entry) { t.Fatalf("Range visited %#x after %s", a, drop.name) })
			c.FlushAll(func(a uint64, _ memline.Line, _ bool) { t.Fatalf("FlushAll wrote %#x after %s", a, drop.name) })
			if c.DirtyCount() != 0 {
				t.Fatalf("DirtyCount = %d", c.DirtyCount())
			}

			// A dropped cache's fork must behave like a fresh cache.
			f, fresh := c.Fork(), MustNew(cfg)
			var fl, fr []string
			logTo := func(dst *[]string) EvictFn {
				return func(a uint64, d memline.Line, dirty bool) { *dst = append(*dst, fmt.Sprint(a, d[0], dirty)) }
			}
			before := f.Stats()
			for i := uint64(0); i < 40; i++ {
				a := (i * 5 % 16) * 64
				ef := f.Insert(a, memline.Line{byte(i)}, false, logTo(&fl))
				er := fresh.Insert(a, memline.Line{byte(i)}, false, logTo(&fr))
				if ef.Dirty || ef.Dirty != er.Dirty {
					t.Fatalf("clean insert of %#x into a dropped slot reads dirty", a)
				}
				f.Lookup((i * 3 % 16) * 64)
				fresh.Lookup((i * 3 % 16) * 64)
			}
			if fmt.Sprint(fl) != fmt.Sprint(fr) {
				t.Fatalf("fork evictions %v, fresh %v", fl, fr)
			}
			after, want := f.Stats(), fresh.Stats()
			if after.Hits-before.Hits != want.Hits || after.Misses-before.Misses != want.Misses ||
				after.Evictions-before.Evictions != want.Evictions || after.DirtyEvicts != before.DirtyEvicts {
				t.Fatalf("fork stats %+v (from %+v), fresh %+v", after, before, want)
			}
			if f.DirtyCount() != 0 || f.IsPinned(0) {
				t.Fatal("fork of a dropped cache carries dirty lines or pins")
			}

			// Clean inserts into the original's dropped dirty slots.
			for a := uint64(0); a < 8; a++ {
				c.Insert(a*64, memline.Line{}, false, nil)
			}
			var dirty []uint64
			c.Range(func(a uint64, e *Entry) {
				if e.Dirty {
					dirty = append(dirty, a)
				}
			})
			if len(dirty) != 0 || c.DirtyCount() != 0 {
				t.Fatalf("clean inserts left dirty lines %v (DirtyCount %d)", dirty, c.DirtyCount())
			}
			c.FlushAll(func(a uint64, _ memline.Line, _ bool) { t.Fatalf("FlushAll wrote clean line %#x", a) })
		})
	}
}
