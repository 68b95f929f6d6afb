package cache

import (
	"testing"

	"nvmstar/internal/memline"
)

// benchCfg is the modelled L3: 4 MiB, 8-way.
var benchCfg = Config{SizeBytes: 4 << 20, Ways: 8}

// benchAddrs returns a fixed, seeded stream of line addresses spread
// over twice benchCfg's capacity (splitmix64, so every run probes the
// same sequence). The stream is four times the capacity long, a power
// of two for cheap wrap-around.
func benchAddrs() []uint64 {
	lines := benchCfg.SizeBytes / memline.Size
	span := uint64(2 * lines)
	out := make([]uint64, 4*lines)
	x := uint64(0x9e3779b97f4a7c15)
	for i := range out {
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
		out[i] = (z % span) * memline.Size
	}
	return out
}

// benchCache returns a cache filled from addrs: every set is full and
// about half of the stream hits.
func benchCache(addrs []uint64) *Cache {
	c := MustNew(benchCfg)
	for _, a := range addrs {
		c.Insert(a, memline.Line{}, false, nil)
	}
	return c
}

// BenchmarkCacheLookup probes the stream against a full cache.
func BenchmarkCacheLookup(b *testing.B) {
	addrs := benchAddrs()
	c := benchCache(addrs)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Lookup(addrs[i&(len(addrs)-1)])
	}
}

// BenchmarkCacheInsertEvict inserts the stream (a third of it dirty)
// into a full cache: misses evict the set's LRU line through a
// callback, hits overwrite in place.
func BenchmarkCacheInsertEvict(b *testing.B) {
	addrs := benchAddrs()
	c := benchCache(addrs)
	var evicted uint64
	onEvict := func(addr uint64, _ memline.Line, _ bool) { evicted += addr }
	var line memline.Line
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		line[0] = byte(i)
		c.Insert(addrs[i&(len(addrs)-1)], line, i%3 == 0, onEvict)
	}
	_ = evicted
}

// BenchmarkCacheInvalidate removes stream addresses from a full cache,
// as the hierarchy's exclusive moves do; about half hit. A removed
// line is inserted back so the cache stays full.
func BenchmarkCacheInvalidate(b *testing.B) {
	addrs := benchAddrs()
	c := benchCache(addrs)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := addrs[i&(len(addrs)-1)]
		if e, ok := c.Invalidate(a); ok {
			c.Insert(a, e.Data, e.Dirty, nil)
		}
	}
}
