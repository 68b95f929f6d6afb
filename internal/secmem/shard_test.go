package secmem_test

import (
	"bytes"
	"fmt"
	"sort"
	"testing"

	"nvmstar/internal/bitmap"
	"nvmstar/internal/cache"
	"nvmstar/internal/memline"
	"nvmstar/internal/schemes/anubis"
	"nvmstar/internal/schemes/star"
	"nvmstar/internal/schemes/strict"
	"nvmstar/internal/schemes/wb"
	"nvmstar/internal/secmem"
	"nvmstar/internal/simcrypto"
)

// newEngineShards is newEngine with an explicit recovery worker
// count.
func newEngineShards(t testing.TB, scheme string, dataBytes uint64, cacheBytes, shards int) *secmem.Engine {
	t.Helper()
	e, err := secmem.New(secmem.Config{
		DataBytes: dataBytes,
		MetaCache: cache.Config{SizeBytes: cacheBytes, Ways: 8},
		Suite:     simcrypto.NewFast(2024),
		Shards:    shards,
	})
	if err != nil {
		t.Fatal(err)
	}
	switch scheme {
	case "wb":
		e.SetScheme(wb.New())
	case "strict":
		e.SetScheme(strict.New(e))
	case "anubis":
		s, err := anubis.New(e)
		if err != nil {
			t.Fatal(err)
		}
		e.SetScheme(s)
	case "star":
		s, err := star.New(e, bitmap.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		e.SetScheme(s)
	default:
		t.Fatalf("unknown scheme %q", scheme)
	}
	return e
}

// sortedVerify is verifyAll with a deterministic (ascending address)
// read order: reads evict and write back dirty metadata, so the read
// ORDER shapes statistics and NVM content — map-order iteration would
// make even two serial runs diverge.
func sortedVerify(t testing.TB, e *secmem.Engine, expect map[uint64]memline.Line) {
	t.Helper()
	addrs := make([]uint64, 0, len(expect))
	for addr := range expect {
		addrs = append(addrs, addr)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	for _, addr := range addrs {
		got, err := e.ReadLine(addr)
		if err != nil {
			t.Fatalf("read %#x: %v", addr, err)
		}
		if got != expect[addr] {
			t.Fatalf("read %#x: content mismatch", addr)
		}
	}
}

// TestShardBitIdentity pins the engine against the recovery worker
// count: the same write stream at Shards 1, 2 and 4 must produce
// identical statistics, identical device counters and byte-identical
// post-crash non-volatile snapshots.
func TestShardBitIdentity(t *testing.T) {
	for _, scheme := range []string{"wb", "strict", "anubis", "star"} {
		t.Run(scheme, func(t *testing.T) {
			type outcome struct {
				stats    secmem.Stats
				dev      string
				snapshot []byte
			}
			var base *outcome
			for _, shards := range []int{1, 2, 4} {
				e := newEngineShards(t, scheme, 1<<20, 16<<10, shards)
				expect := runWorkload(t, e, 2500, 7)
				sortedVerify(t, e, expect)
				stats := e.Stats()
				dev := fmt.Sprintf("%+v lines=%d", e.Device().Stats(), e.Device().LinesWritten())
				e.Crash()
				var snap bytes.Buffer
				if err := e.SaveNonVolatile(&snap); err != nil {
					t.Fatal(err)
				}
				got := &outcome{stats: stats, dev: dev, snapshot: snap.Bytes()}
				if base == nil {
					base = got
					continue
				}
				if got.stats != base.stats {
					t.Errorf("shards=%d stats diverge:\n  got  %+v\n  want %+v", shards, got.stats, base.stats)
				}
				if got.dev != base.dev {
					t.Errorf("shards=%d device counters diverge:\n  got  %s\n  want %s", shards, got.dev, base.dev)
				}
				if !bytes.Equal(got.snapshot, base.snapshot) {
					t.Errorf("shards=%d post-crash snapshot bytes diverge from shards=1", shards)
				}
			}
		})
	}
}

// TestShardRecoveryBitIdentity pins the parallel recovery path to the
// serial one: after an identical workload and crash, the recovery
// report, the engine statistics (including the replayed device-access
// accounting) and a post-recovery snapshot must match shards=1 exactly.
func TestShardRecoveryBitIdentity(t *testing.T) {
	for _, scheme := range []string{"star", "anubis"} {
		t.Run(scheme, func(t *testing.T) {
			type outcome struct {
				rep      secmem.RecoveryReport
				stats    secmem.Stats
				dev      string
				snapshot []byte
			}
			var base *outcome
			for _, shards := range []int{1, 2, 4, 8} {
				e := newEngineShards(t, scheme, 1<<20, 16<<10, shards)
				runWorkload(t, e, 3000, 11)
				e.Crash()
				rep, err := e.Recover()
				if err != nil {
					t.Fatalf("shards=%d recover: %v", shards, err)
				}
				if !rep.Verified {
					t.Fatalf("shards=%d recovery unverified: %+v", shards, rep)
				}
				stats := e.Stats()
				wearAddr, wearMax := e.Device().MaxWear()
				dev := fmt.Sprintf("%+v lines=%d maxwear=%d@%#x",
					e.Device().Stats(), e.Device().LinesWritten(), wearMax, wearAddr)
				e.Crash()
				var snap bytes.Buffer
				if err := e.SaveNonVolatile(&snap); err != nil {
					t.Fatal(err)
				}
				got := &outcome{rep: *rep, stats: stats, dev: dev, snapshot: snap.Bytes()}
				if base == nil {
					base = got
					continue
				}
				if got.rep != base.rep {
					t.Errorf("shards=%d recovery report diverges:\n  got  %+v\n  want %+v", shards, got.rep, base.rep)
				}
				if got.stats != base.stats {
					t.Errorf("shards=%d stats diverge:\n  got  %+v\n  want %+v", shards, got.stats, base.stats)
				}
				if got.dev != base.dev {
					t.Errorf("shards=%d device counters diverge:\n  got  %s\n  want %s", shards, got.dev, base.dev)
				}
				if !bytes.Equal(got.snapshot, base.snapshot) {
					t.Errorf("shards=%d post-recovery snapshot bytes diverge from shards=1", shards)
				}
			}
		})
	}
}

// TestRandomCrashPointsSharded is the crash-consistency fuzz of
// crashfuzz_test.go run with 2 and 4 recovery workers: random bursts
// crash at arbitrary points, and the parallel recovery must still
// hold every acknowledged write. The CI race smoke runs this under
// -race, exercising the worker dispatch and merge.
func TestRandomCrashPointsSharded(t *testing.T) {
	for _, scheme := range []string{"star", "anubis"} {
		for _, shards := range []int{2, 4} {
			for seed := uint64(1); seed <= 2; seed++ {
				t.Run(fmt.Sprintf("%s/shards%d/seed%d", scheme, shards, seed), func(t *testing.T) {
					e := newEngineShards(t, scheme, 1<<20, 16<<10, shards)
					r := lcg(seed * 1315423911)
					lines := e.Geometry().DataBytes() / memline.Size
					persisted := make(map[uint64]memline.Line)
					var seq uint64
					for burst := 0; burst < 4; burst++ {
						n := int(r.next()%1200) + 100
						for i := 0; i < n; i++ {
							addr := (r.next() % lines) * memline.Size
							seq++
							l := lineFor(addr, seq)
							if err := e.WriteLine(addr, l); err != nil {
								t.Fatalf("burst %d write %d: %v", burst, i, err)
							}
							persisted[addr] = l
						}
						e.Crash()
						rep, err := e.Recover()
						if err != nil {
							t.Fatalf("burst %d recovery: %v", burst, err)
						}
						if !rep.Verified {
							t.Fatalf("burst %d: recovery unverified: %+v", burst, rep)
						}
					}
					verifyAll(t, e, persisted)
				})
			}
		}
	}
}
