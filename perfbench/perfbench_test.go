package main

import (
	"bytes"
	"math"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"nvmstar/internal/experiments"
)

func TestNormalize(t *testing.T) {
	cases := []struct {
		raw, before, after, want float64
	}{
		// A host running the kernel at its nominal time leaves the
		// interval unchanged.
		{2e-3, refNominalSec, refNominalSec, 2e-3},
		// A host twice as slow halves it.
		{2e-3, 2 * refNominalSec, 2 * refNominalSec, 1e-3},
		// The two brackets are averaged.
		{3e-3, refNominalSec, 2 * refNominalSec, 2e-3},
	}
	for _, c := range cases {
		if got := normalize(c.raw, c.before, c.after); math.Abs(got-c.want) > 1e-15 {
			t.Errorf("normalize(%g, %g, %g) = %g, want %g", c.raw, c.before, c.after, got, c.want)
		}
	}
}

func TestRefClockBracketsConsecutiveIntervals(t *testing.T) {
	c := newRefClock()
	iv, err := c.time(func() error { time.Sleep(time.Millisecond); return nil })
	if err != nil {
		t.Fatal(err)
	}
	if len(c.refs) != 2 {
		t.Fatalf("kernel ran %d times for one interval, want 2 (before and after)", len(c.refs))
	}
	if want := normalize(iv.raw, c.refs[0], c.refs[1]); iv.norm != want {
		t.Errorf("norm = %g, want %g", iv.norm, want)
	}
	if _, err := c.time(func() error { return nil }); err != nil {
		t.Fatal(err)
	}
	if len(c.refs) != 3 {
		t.Errorf("a following interval reran its before-bracket: %d kernel runs, want 3", len(c.refs))
	}
}

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so tail must sort
	}
	return xs
}

func TestTailLeavesTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n       int
		ok      bool
		pct     float64
		value   float64
		samples int
	}{
		{n: 19, ok: false, samples: 19},
		{n: 20, ok: true, pct: 50, value: 10, samples: 20},
		{n: 99, ok: true, pct: 50, value: 50, samples: 99},
		{n: 100, ok: true, pct: 90, value: 90, samples: 100},
		{n: 999, ok: true, pct: 90, value: 900, samples: 999},
		{n: 1000, ok: true, pct: 99, value: 990, samples: 1000},
		{n: 10000, ok: true, pct: 99.9, value: 9990, samples: 10000},
	}
	for _, c := range cases {
		v, pct, n, ok := tail(seq(c.n))
		if ok != c.ok || n != c.samples || (ok && (pct != c.pct || v != c.value)) {
			t.Errorf("tail(%d samples) = (%g, p%g, n=%d, %v), want (%g, p%g, n=%d, %v)",
				c.n, v, pct, n, ok, c.value, c.pct, c.samples, c.ok)
		}
		if ok {
			beyond := 0
			for _, x := range seq(c.n) {
				if x > v {
					beyond++
				}
			}
			if beyond < 10 {
				t.Errorf("tail(%d samples): %d samples beyond p%g, want at least 10", c.n, beyond, pct)
			}
		}
	}
}

func TestBucketProfileInnermostModule(t *testing.T) {
	stacks := []profStack{
		// Innermost internal frame is cache, although sim called it.
		{frames: []string{"runtime.memmove", "nvmstar/internal/cache.(*Cache).find",
			"nvmstar/internal/sim.(*Machine).Load", "nvmstar/internal/sim.(*Session).StepN",
			"main.(*bench).runOps"}, count: 6},
		// A nested module path buckets under its first element.
		{frames: []string{"nvmstar/internal/schemes/star.(*Scheme).Recover",
			"nvmstar/internal/sim.(*Machine).Recover", "main.runCrashRecover"}, count: 2},
		// Background GC is its own bucket, whatever it scans.
		{frames: []string{"runtime.scanobject", "nvmstar/internal/cache.(*Cache).find",
			"runtime.gcBgMarkWorker"}, count: 1},
		// Warm-up steps inside a set-up count as set-up.
		{frames: []string{"nvmstar/internal/workload.(*hashWL).Step",
			"nvmstar/internal/sim.(*Session).StepN", "main.(*bench).setupRepeated"}, count: 1},
	}
	got := bucketProfile(stacks)
	want := map[string]float64{
		"profile.samples":    10,
		"cache.self_frac":    0.6,
		"schemes.self_frac":  0.2,
		"workload.self_frac": 0.1,
		"sim.self_frac":      0,
		"runtime.gc_frac":    0.1,
		"phase.measure_frac": 0.6,
		"phase.recover_frac": 0.2,
		"phase.setup_frac":   0.1,
		"phase.fork_frac":    0,
	}
	for k, v := range want {
		if math.Abs(got[k]-v) > 1e-12 {
			t.Errorf("%s = %g, want %g", k, got[k], v)
		}
	}
	for _, m := range profModules {
		if _, ok := got[m+".self_frac"]; !ok {
			t.Errorf("module %s missing from the buckets", m)
		}
	}
}

func TestModuleOf(t *testing.T) {
	for fn, want := range map[string]string{
		"nvmstar/internal/cache.(*Cache).find":         "cache",
		"nvmstar/internal/schemes/star.(*Scheme).Fork": "schemes",
		"nvmstar/internal/paged.(*Table[...]).Get":     "paged",
		"nvmstar.(*System).Load":                       "",
		"runtime.mallocgc":                             "",
	} {
		if got := moduleOf(fn); got != want {
			t.Errorf("moduleOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

//go:noinline
func profiledSpin(d time.Duration) uint64 {
	var x uint64 = 1
	for start := time.Now(); time.Since(start) < d; {
		for i := 0; i < 1000; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}
	return x
}

func TestDecodeProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("cpu profiler unavailable: %v", err)
	}
	profiledSpin(300 * time.Millisecond)
	pprof.StopCPUProfile()
	stacks, err := decodeProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var total, spin int64
	for _, s := range stacks {
		total += s.count
		for _, f := range s.frames {
			if strings.HasSuffix(f, ".profiledSpin") {
				spin += s.count
				break
			}
		}
	}
	if total == 0 || spin*2 < total {
		t.Errorf("decoded %d samples, %d under profiledSpin; want most of them there", total, spin)
	}
	if _, err := decodeProfile([]byte("not a profile")); err == nil {
		t.Error("decodeProfile accepted garbage")
	}
}

func TestKVGeneratorDeterministic(t *testing.T) {
	const n = 20000
	a, b, c := newKVGen(7), newKVGen(7), newKVGen(8)
	same := true
	stores, hot := 0, 0
	for i := 0; i < n; i++ {
		x, y, z := a.next(), b.next(), c.next()
		if x != y {
			t.Fatalf("op %d differs between two generators of seed 7: %+v vs %+v", i, x, y)
		}
		if x != z {
			same = false
		}
		if x.key >= kvKeys {
			t.Fatalf("op %d: key %d out of range", i, x.key)
		}
		if x.store {
			stores++
		}
		if x.key < kvHotKeys {
			hot++
		}
	}
	if same {
		t.Error("seeds 7 and 8 generated the same stream")
	}
	if f := float64(stores) / n; f < 0.04 || f > 0.06 {
		t.Errorf("store fraction %.3f, want about 0.05", f)
	}
	if f := float64(hot) / n; f < 0.78 || f > 0.82 {
		t.Errorf("hot-set fraction %.3f, want about 0.8", f)
	}
}

func TestKVAddrIsABijection(t *testing.T) {
	seen := make(map[uint64]bool, kvKeys)
	for k := uint32(0); k < kvKeys; k++ {
		a := kvAddr(k)
		if a%64 != 0 || a >= kvKeys*64 || seen[a] {
			t.Fatalf("key %d maps to %#x: misaligned, out of range or taken", k, a)
		}
		seen[a] = true
	}
}

func TestCellKeyFindsTable2Duplicate(t *testing.T) {
	base := sweepConfig(1)
	star := cellKey(base, experiments.Cell{Workload: "hash", Scheme: "star"}, sweepOps)
	adr16 := cellKey(base, experiments.Cell{Workload: "hash", Scheme: "star", Label: "adr=16"}, sweepOps)
	adr8 := cellKey(base, experiments.Cell{Workload: "hash", Scheme: "star", Label: "adr=8"}, sweepOps)
	if star != adr16 {
		t.Error("adr=16 (the default 14+2 bitmap) keys differently from the default STAR cell")
	}
	if star == adr8 {
		t.Error("adr=8 keys like the default STAR cell")
	}
	if star == cellKey(base, experiments.Cell{Workload: "array", Scheme: "star"}, sweepOps) {
		t.Error("different workloads share a key")
	}
}

func TestMeasuredOpsIsWholeBatches(t *testing.T) {
	b := &bench{seconds: 15}
	if got := b.measuredOps(1000, 300); got != 15000 {
		t.Errorf("measuredOps = %d, want 15000", got)
	}
	if got := b.measuredOps(1000, 400); got%400 != 0 || got > 15000 {
		t.Errorf("measuredOps = %d, want whole batches of 400 within 15000", got)
	}
	b.seconds = 0.001
	if got := b.measuredOps(10, 5); got != 10 {
		t.Errorf("measuredOps on a tiny run = %d, want two batches", got)
	}
}
