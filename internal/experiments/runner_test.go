package experiments

import (
	"context"
	"errors"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"nvmstar/internal/cache"
	"nvmstar/internal/provenance"
	"nvmstar/internal/sim"
)

// fastRunner mirrors fastOpts as functional options, plus the given
// pool width.
func fastRunner(parallel int, extra ...Option) *Runner {
	opts := append([]Option{
		WithOps(1200),
		WithWorkloads("array", "queue"),
		WithConfig(func() sim.Config {
			cfg := sim.Default()
			cfg.Cores = 4
			cfg.DataBytes = 16 << 20
			cfg.L1 = cache.Config{SizeBytes: 8 << 10, Ways: 2}
			cfg.L2 = cache.Config{SizeBytes: 32 << 10, Ways: 8}
			cfg.L3 = cache.Config{SizeBytes: 128 << 10, Ways: 8}
			cfg.MetaCache = cache.Config{SizeBytes: 64 << 10, Ways: 8}
			return cfg
		}),
		WithParallelism(parallel),
	}, extra...)
	return NewRunner(opts...)
}

// TestRunnerDeterminism is the golden test of the machine-isolation
// invariant: a 4-worker sweep must produce bit-identical per-cell
// sim.Results to the sequential path, both for the raw cell stream and
// for every assembled figure.
func TestRunnerDeterminism(t *testing.T) {
	ctx := context.Background()
	seq := fastRunner(1)
	par := fastRunner(4)

	cells := seq.Matrix(nil, []string{"wb", "star", "anubis"})
	if len(cells) != 6 {
		t.Fatalf("matrix = %d cells", len(cells))
	}
	seqRes, err := seq.Run(ctx, cells)
	if err != nil {
		t.Fatal(err)
	}
	parRes, err := par.Run(ctx, cells)
	if err != nil {
		t.Fatal(err)
	}
	for i := range cells {
		if seqRes[i].Err != nil || parRes[i].Err != nil {
			t.Fatalf("cell %v error: %v / %v", cells[i], seqRes[i].Err, parRes[i].Err)
		}
		if !reflect.DeepEqual(seqRes[i].Results, parRes[i].Results) {
			t.Errorf("cell %v: parallel results differ from sequential:\nseq: %+v\npar: %+v",
				cells[i], seqRes[i].Results, parRes[i].Results)
		}
	}

	seqRows, err := seq.SchemeComparison(ctx, nil)
	if err != nil {
		t.Fatal(err)
	}
	parRows, err := par.SchemeComparison(ctx, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seqRows, parRows) {
		t.Errorf("SchemeComparison differs:\nseq: %+v\npar: %+v", seqRows, parRows)
	}

	seq10, err := seq.Fig10(ctx)
	if err != nil {
		t.Fatal(err)
	}
	par10, err := par.Fig10(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq10, par10) {
		t.Errorf("Fig10 differs:\nseq: %+v\npar: %+v", seq10, par10)
	}

	seqT2, err := seq.Table2(ctx, []int{2, 8})
	if err != nil {
		t.Fatal(err)
	}
	parT2, err := par.Table2(ctx, []int{2, 8})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seqT2, parT2) {
		t.Errorf("Table2 differs:\nseq: %+v\npar: %+v", seqT2, parT2)
	}
}

// TestRunnerMachineReuseMatchesFresh pins the machine pool against the
// ground truth the pool is supposed to be invisible relative to: for
// every cell of a sweep that forces heavy per-worker reuse (many cells,
// few distinct configurations, 2 workers), a machine built from scratch
// for exactly that cell must produce bit-identical Results — and,
// since the provenance layer leans on exactly this invariant, a
// byte-identical canonical-JSON cell digest.
func TestRunnerMachineReuseMatchesFresh(t *testing.T) {
	ctx := context.Background()
	collector := provenance.NewCollector()
	r := fastRunner(2, WithCollector(collector))
	cells := r.Matrix([]string{"array", "queue"}, []string{"wb", "star", "strict"})
	got, err := r.Run(ctx, cells)
	if err != nil {
		t.Fatal(err)
	}
	digests := map[string]string{}
	for _, rec := range collector.Cells() {
		digests[rec.Key()] = rec.Digest
	}
	for i, cr := range got {
		if cr.Err != nil {
			t.Fatalf("cell %v: %v", cells[i], cr.Err)
		}
		cfg := fastRunner(1).cfg()
		cfg.Scheme = cells[i].Scheme
		cfg.Seed += uint64(cells[i].Seed) * 7919
		m, err := sim.NewMachine(cfg)
		if err != nil {
			t.Fatalf("cell %v: fresh machine: %v", cells[i], err)
		}
		ops := r.opsFor(cells[i].Scheme)
		want, err := m.Run(cells[i].Workload, ops)
		if err != nil {
			t.Fatalf("cell %v: fresh run: %v", cells[i], err)
		}
		if !reflect.DeepEqual(want, cr.Results) {
			t.Errorf("cell %v: pooled results differ from a fresh machine:\nfresh  %+v\npooled %+v",
				cells[i], want, cr.Results)
		}
		freshDigest, err := provenance.Digest(want)
		if err != nil {
			t.Fatalf("cell %v: digest: %v", cells[i], err)
		}
		key := provenance.CellRecord{Sweep: "matrix", Workload: cells[i].Workload,
			Scheme: cells[i].Scheme, Seed: cells[i].Seed, Label: cells[i].Label}.Key()
		if pooled, ok := digests[key]; !ok || pooled != freshDigest {
			t.Errorf("cell %v: pooled digest %q != fresh digest %q (reuse leaks into provenance)",
				cells[i], pooled, freshDigest)
		}
	}
}

// TestRunSweepFinalStats checks the headless Stats path: a completed
// RunSweep must report the sweep's accounting without the -http expvar
// server, with a frozen (non-decaying) completion rate.
func TestRunSweepFinalStats(t *testing.T) {
	r := fastRunner(2)
	cells := r.Matrix([]string{"array"}, []string{"wb", "star"})
	sw, err := r.RunSweep(context.Background(), cells)
	if err != nil {
		t.Fatal(err)
	}
	if len(sw.Results) != len(cells) {
		t.Fatalf("results = %d, want %d", len(sw.Results), len(cells))
	}
	s := sw.Stats
	if s.CellsDone != int64(len(cells)) || s.CellsTotal != int64(len(cells)) {
		t.Fatalf("final stats miscount cells: %+v", s)
	}
	if s.MachinesBuilt+s.MachinesReused != int64(len(cells)) {
		t.Fatalf("pool accounting does not cover every cell: %+v", s)
	}
	if s.CellsPerSec <= 0 {
		t.Fatalf("final CellsPerSec not reported: %+v", s)
	}
	if sw.Wall <= 0 || r.WallTime() <= 0 {
		t.Fatalf("wall time not tracked: sweep %v, runner %v", sw.Wall, r.WallTime())
	}
	// The rate must be frozen at sweep completion, not decay with
	// wall-clock time after it.
	if later := r.Snapshot().CellsPerSec; later != s.CellsPerSec {
		t.Fatalf("CellsPerSec decays after the sweep: %v then %v", s.CellsPerSec, later)
	}
}

// TestRunnerManifestDeterministic runs the same mixed sweep set twice
// — once sequentially, once on a 4-wide pool — and requires identical
// manifests modulo environment/wall noise: same cells, same digests,
// same sealed manifest digest.
func TestRunnerManifestDeterministic(t *testing.T) {
	ctx := context.Background()
	build := func(parallel int) *provenance.Manifest {
		c := provenance.NewCollector()
		r := fastRunner(parallel, WithCollector(c))
		if _, err := r.Run(ctx, r.Matrix(nil, []string{"wb", "star"})); err != nil {
			t.Fatal(err)
		}
		if _, err := r.Fig14a(ctx); err != nil {
			t.Fatal(err)
		}
		m, err := r.BuildManifest("test-rev")
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	seq, par := build(1), build(4)
	if err := seq.Verify(); err != nil {
		t.Fatal(err)
	}
	if len(seq.Cells) == 0 || len(seq.Cells) != len(par.Cells) {
		t.Fatalf("cell counts differ: %d vs %d", len(seq.Cells), len(par.Cells))
	}
	for i := range seq.Cells {
		if seq.Cells[i].Key() != par.Cells[i].Key() || seq.Cells[i].Digest != par.Cells[i].Digest {
			t.Fatalf("cell %d differs across pool widths:\nseq %+v\npar %+v",
				i, seq.Cells[i], par.Cells[i])
		}
	}
	if seq.Digest != par.Digest {
		t.Fatalf("manifest digests differ across pool widths: %s vs %s", seq.Digest, par.Digest)
	}
	if seq.Config.Fingerprint == "" || seq.Env.GitRev != "test-rev" {
		t.Fatalf("manifest misses provenance fields: %+v", seq)
	}
	if seq.SimTimeNs <= 0 {
		t.Fatalf("simulated time not aggregated: %+v", seq.SimTimeNs)
	}
}

// TestBuildManifestRequiresCollector pins the error path.
func TestBuildManifestRequiresCollector(t *testing.T) {
	if _, err := fastRunner(1).BuildManifest(""); err == nil {
		t.Fatal("BuildManifest without a collector must fail")
	}
}

func TestRunnerCancellationMidSweep(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	r := fastRunner(2, WithProgress(func(p Progress) {
		if p.Done == 1 {
			cancel() // abort as soon as the first cell lands
		}
	}))
	cells := r.Matrix(nil, []string{"wb", "star", "anubis", "strict"})
	start := time.Now()
	results, err := r.Run(ctx, cells)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(results) != len(cells) {
		t.Fatalf("results = %d, want %d slots", len(results), len(cells))
	}
	completed := 0
	for _, cr := range results {
		if cr.Results != nil {
			completed++
		}
	}
	if completed == len(cells) {
		t.Fatal("cancellation did not stop the sweep: every cell completed")
	}
	t.Logf("canceled after %d/%d cells in %v", completed, len(cells), time.Since(start))

	// A pre-canceled context runs nothing.
	dead, deadCancel := context.WithCancel(context.Background())
	deadCancel()
	results, err = fastRunner(2).Run(dead, cells)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-canceled err = %v", err)
	}
	for _, cr := range results {
		if cr.Results != nil {
			t.Fatalf("pre-canceled context still ran cell %v", cr.Cell)
		}
	}
}

func TestRunnerCancellationAbortsFigures(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r := fastRunner(2)
	if _, err := r.SchemeComparison(ctx, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("SchemeComparison err = %v", err)
	}
	if _, err := r.Fig14b(ctx, []int{32 << 10}); !errors.Is(err, context.Canceled) {
		t.Fatalf("Fig14b err = %v", err)
	}
}

// TestRunnerPoolBounding drives the pool with instrumented jobs and
// asserts concurrency never exceeds the configured width.
func TestRunnerPoolBounding(t *testing.T) {
	const width = 4
	r := NewRunner(WithParallelism(width))
	cells := make([]Cell, 32)
	var cur, peak int64
	err := r.forEach(context.Background(), cells, func(ctx context.Context, _ *machinePool, i int) error {
		n := atomic.AddInt64(&cur, 1)
		for {
			p := atomic.LoadInt64(&peak)
			if n <= p || atomic.CompareAndSwapInt64(&peak, p, n) {
				break
			}
		}
		time.Sleep(2 * time.Millisecond)
		atomic.AddInt64(&cur, -1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := atomic.LoadInt64(&peak); got > width {
		t.Fatalf("pool ran %d jobs concurrently, bound is %d", got, width)
	} else {
		t.Logf("peak concurrency %d (bound %d)", got, width)
	}
}

func TestRunnerProgress(t *testing.T) {
	var events []Progress
	r := fastRunner(2, WithProgress(func(p Progress) { events = append(events, p) }))
	cells := r.Matrix([]string{"array"}, []string{"wb", "star"})
	if _, err := r.Run(context.Background(), cells); err != nil {
		t.Fatal(err)
	}
	if len(events) != len(cells) {
		t.Fatalf("progress events = %d, want %d", len(events), len(cells))
	}
	for i, p := range events {
		if p.Done != i+1 || p.Total != len(cells) {
			t.Fatalf("event %d = %d/%d, want %d/%d", i, p.Done, p.Total, i+1, len(cells))
		}
		if p.CellWall <= 0 || p.Elapsed <= 0 {
			t.Fatalf("event %d has zero timing: %+v", i, p)
		}
		if p.Done == p.Total && p.ETA != 0 {
			t.Fatalf("final event has nonzero ETA: %+v", p)
		}
	}
}

// TestRunnerSpeedup times the same sweep sequentially and with a
// 4-wide pool and logs the ratio. The speedup assertion only makes
// sense with real parallel hardware, so it is logged (and checked
// loosely) rather than hard-asserted on small machines.
func TestRunnerSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("timing comparison skipped in -short")
	}
	ctx := context.Background()
	run := func(parallel int) time.Duration {
		r := fastRunner(parallel, WithWorkloads("array", "queue", "hash"))
		start := time.Now()
		if _, err := r.SchemeComparison(ctx, nil); err != nil {
			t.Fatal(err)
		}
		return time.Since(start)
	}
	run(1) // warm caches so the comparison is fair
	seq := run(1)
	par := run(4)
	t.Logf("sequential %v, 4-worker %v, speedup %.2fx (GOMAXPROCS-visible CPUs matter)",
		seq, par, float64(seq)/float64(par))
	if par > seq*3 {
		t.Errorf("parallel sweep pathologically slower: seq %v, par %v", seq, par)
	}
}
