package main

import (
	"context"
	"fmt"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"

	"nvmstar/internal/bitmap"
	"nvmstar/internal/experiments"
	"nvmstar/internal/provenance"
	"nvmstar/internal/regress"
	"nvmstar/internal/sim"
)

// paper-sweep: the `make regress` matrix — 28 cells over the hash and
// array workloads at 1500 ops — on one experiments.Runner of
// parallelism 1, with each figure method the shape report uses called
// in turn. Workload set-up dominates its host time, and duplicate
// cells across figures show only here. At seed 1 its cell digests must
// equal BASELINE_manifest.json.

const (
	baselineManifest = "BASELINE_manifest.json"
	sweepOps         = 1500
	sweepBaseSeed    = 1
	// The cell probe: the sweep's dominant cell, hash under STAR, run
	// on its own so its set-up and per-step times show apart from the
	// sweep's mixed cells.
	probeWorkload = "hash"
	probeOps      = 300_000
	probeBatchOps = 1_000
)

var sweepWorkloads = []string{"hash", "array"}

// sweepConfig is the machine configuration `make regress` sweeps
// (starreport's -data-mb 64 with its 256 KiB metadata cache).
func sweepConfig(seed uint64) sim.Config {
	cfg := sim.Default()
	cfg.DataBytes = 64 << 20
	cfg.MetaCache.SizeBytes = 256 << 10
	cfg.Seed = seed
	return cfg
}

// cellKey identifies a cell's simulation: the seedless configuration
// fingerprint, workload, PRNG seed and ops. Two cells with one key
// simulate the same thing. The configuration is rebuilt from the cell
// exactly as the runner derives it.
func cellKey(base sim.Config, c experiments.Cell, ops int) string {
	cfg := base
	cfg.Scheme = c.Scheme
	cfg.Seed += uint64(c.Seed) * 7919
	if v, ok := strings.CutPrefix(c.Label, "adr="); ok {
		if lines, err := strconv.Atoi(v); err == nil {
			l2 := lines / 8
			if l2 == 0 {
				l2 = 1
			}
			cfg.Bitmap = bitmap.Config{ADRL1Lines: lines - l2, ADRL2Lines: l2}
		}
	}
	return fmt.Sprintf("%s|%s|%d|%d", provenance.ConfigFingerprint(cfg), c.Workload, cfg.Seed, ops)
}

// cellCounter observes the sweep's completed cells.
type cellCounter struct {
	base sim.Config

	mu       sync.Mutex
	seen     int
	distinct map[string]bool
	ops      int64
	reads    uint64
	macs     uint64
	adrHits  uint64
	adrTotal uint64
}

func (cc *cellCounter) observe(c experiments.Cell, res *sim.Results) {
	key := cellKey(cc.base, c, res.Ops)
	cc.mu.Lock()
	defer cc.mu.Unlock()
	cc.seen++
	cc.distinct[key] = true
	cc.ops += int64(res.Ops)
	cc.reads += res.Dev.Reads
	cc.macs += res.Engine.MACComputes
	if res.Bitmap != nil {
		cc.adrHits += res.Bitmap.Hits()
		cc.adrTotal += res.Bitmap.Accesses()
	}
}

// sweepResult is what one sweep yields for the metrics.
type sweepResult struct {
	norm     float64            // reference-normalized seconds, all figures
	figNorm  map[string]float64 // per figure
	peak     peakHeap
	memMB    float64 // peak live heap over the sweep
	manifest *provenance.Manifest
	cells    *cellCounter
	stats    experiments.Stats
	scheme   []experiments.SchemeRow
	fig14a   []experiments.Fig14aRow
	fig14b   []experiments.Fig14bRow
}

// peakHeap tracks the largest live heap the runtime has measured (at
// the end of its last GC cycle) when sampled. A forced GC at every
// completed cell would perturb the timed figures, and between figures
// the runner holds no machines, so the sweep samples the runtime's own
// measurement as each unit completes.
type peakHeap struct {
	mu    sync.Mutex
	bytes uint64
	s     []metrics.Sample
}

func (p *peakHeap) sample() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.s == nil {
		p.s = []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	}
	metrics.Read(p.s)
	if v := p.s[0].Value; v.Kind() == metrics.KindUint64 && v.Uint64() > p.bytes {
		p.bytes = v.Uint64()
	}
}

func (p *peakHeap) mb() float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return float64(p.bytes-refTableBytes) / (1 << 20)
}

// sweep runs the matrix once, each figure call bracketed by the
// reference kernel after a forced GC.
func (b *bench) sweep() (*sweepResult, error) {
	out := &sweepResult{
		figNorm: map[string]float64{},
		cells:   &cellCounter{base: sweepConfig(b.seed), distinct: map[string]bool{}},
	}
	collector := &provenance.Collector{}
	r := experiments.NewRunner(
		experiments.WithOps(sweepOps),
		experiments.WithSeeds(1),
		experiments.WithWorkloads(sweepWorkloads...),
		experiments.WithParallelism(1),
		experiments.WithConfig(func() sim.Config { return sweepConfig(b.seed) }),
		experiments.WithCollector(collector),
		experiments.WithResultObserver(out.cells.observe),
		experiments.WithProgress(func(experiments.Progress) { out.peak.sample() }),
	)
	ctx := context.Background()
	figures := []struct {
		name string
		run  func() error
	}{
		{"scheme_comparison", func() (err error) {
			out.scheme, err = r.SchemeComparison(ctx, []string{"wb", "star", "anubis", "strict"})
			return err
		}},
		{"table2", func() error {
			_, err := r.Table2(ctx, []int{2, 4, 8, 16, 32})
			return err
		}},
		{"fig14a", func() (err error) {
			out.fig14a, err = r.Fig14a(ctx)
			return err
		}},
		{"fig14b", func() (err error) {
			out.fig14b, err = r.Fig14b(ctx, nil)
			return err
		}},
	}
	for _, f := range figures {
		runtime.GC()
		b.clk.rebracket()
		iv, err := b.clk.timeLong(f.run)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", f.name, err)
		}
		out.figNorm[f.name] = iv.norm
		out.norm += iv.norm
		b.note("paper-sweep: %s took %.3f s normalized, %.3f s raw", f.name, iv.norm, iv.raw)
	}
	out.memMB = out.peak.mb()
	out.stats = r.Snapshot()
	m, err := r.BuildManifest("perfbench")
	if err != nil {
		return nil, err
	}
	out.manifest = m
	return out, nil
}

// gate checks the sweep's cells: none may have failed, and at the
// baseline's seed every digest must equal BASELINE_manifest.json's.
func (b *bench) gate(m *provenance.Manifest) error {
	b.attempted += int64(len(m.Cells))
	for _, c := range m.Cells {
		if c.Err != "" {
			b.fail("paper-sweep: cell %s: %s", c.Key(), c.Err)
		}
	}
	if b.seed != sweepBaseSeed {
		return nil
	}
	base, err := provenance.ReadFile(baselineManifest)
	if err != nil {
		return err
	}
	v, err := regress.CompareManifests(base, m, regress.DefaultTolerance())
	if err != nil {
		return err
	}
	for _, it := range v.Regressions() {
		b.fail("paper-sweep: %s: %s (%s → %s)", it.Name, it.Detail, it.Old, it.New)
	}
	return nil
}

// probe sets up and steps the sweep's dominant cell on its own: its
// set-up is setup_s, its steps give the per-operation metrics, and its
// live heap is mem_mb (between figures the runner holds no machines).
func (b *bench) probe() error {
	cfg := sweepConfig(b.seed)
	cfg.Scheme = "star"
	var (
		m *sim.Machine
		s *sim.Session
	)
	err := b.setupRepeated(setupReps, func() { m, s = nil, nil }, func() error {
		var err error
		if m, err = sim.NewMachine(cfg); err != nil {
			return err
		}
		s, err = m.NewSession(probeWorkload)
		return err
	})
	if err != nil {
		return err
	}
	var t batches
	allocs := startAllocWindow()
	b.clk.rebracket()
	err = b.runOps(&t, probeOps, probeBatchOps, func(n int) error {
		b.attempted += int64(n)
		return s.StepN(n)
	})
	if err != nil {
		return err
	}
	allocs.finish(b, probeOps)
	b.e2e["mem_mb"] = liveHeapMB()
	verifyPhase(func() { b.checkErr("probe verify", s.Verify()) })
	b.reportBatches(&t)
	return nil
}

func runPaperSweep(b *bench) error {
	if err := b.probe(); err != nil {
		return err
	}
	gc := gcCycles()
	res, err := b.sweep()
	if err != nil {
		return err
	}
	b.layer["runtime.gc_cycles"] = float64(gcCycles() - gc)
	if err := b.gate(res.manifest); err != nil {
		return err
	}
	if b.trace {
		// The per-layer profile comes from a second, traced sweep;
		// its gate repeats the first's.
		var traced *sweepResult
		err := b.profiled(func() (err error) {
			traced, err = b.sweep()
			return err
		})
		if err != nil {
			return err
		}
		if err := b.gate(traced.manifest); err != nil {
			return err
		}
		// Both sweeps do the same work.
		b.layer["trace.overhead_frac"] = res.norm/traced.norm - 1
	}

	b.e2e["sweep_s"] = res.norm
	b.layer["experiments.peak_live_mb"] = res.memMB
	for name, v := range res.figNorm {
		b.layer["experiments."+name+"_s"] = v
	}
	var writes, ipc float64
	var stars int
	for _, row := range res.scheme {
		if row.Scheme == "star" {
			writes += row.WritesPerOp
			ipc += row.IPC
			stars++
		}
	}
	b.e2e["sim_writes_per_op"] = writes / float64(stars)
	b.e2e["sim_ipc"] = ipc / float64(stars)
	largest := res.fig14b[len(res.fig14b)-1]
	b.e2e["sim_recovery_ms"] = 1e3 * largest.StarSeconds
	b.layer["recovery.stale_nodes"] = float64(largest.StaleNodes)
	var dirty float64
	for _, row := range res.fig14a {
		dirty += row.DirtyFrac
	}
	b.layer["secmem.dirty_meta_frac"] = dirty / float64(len(res.fig14a))

	cc := res.cells
	b.layer["experiments.cells"] = float64(len(res.manifest.Cells))
	b.layer["experiments.distinct_cell_frac"] = float64(len(cc.distinct)) / float64(cc.seen)
	b.layer["experiments.machines_reused_frac"] = float64(res.stats.MachinesReused) /
		float64(res.stats.MachinesBuilt+res.stats.MachinesReused)
	b.layer["nvm.reads_per_op"] = float64(cc.reads) / float64(cc.ops)
	b.layer["secmem.mac_computes_per_op"] = float64(cc.macs) / float64(cc.ops)
	b.layer["bitmap.adr_hit_ratio"] = float64(cc.adrHits) / float64(cc.adrTotal)
	b.note("paper-sweep: %d cells, %d of %d non-crash cells distinct, %d machines built, %d reused",
		len(res.manifest.Cells), len(cc.distinct), cc.seen, res.stats.MachinesBuilt, res.stats.MachinesReused)
	return nil
}
