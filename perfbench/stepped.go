package main

import (
	"time"

	"nvmstar/internal/secmem"
	"nvmstar/internal/sim"
)

// setupReps is how many times each run sets its workload up; setup_s
// is the median.
const setupReps = 3

// stepped describes a workload measured in batches of simulator
// operations: kv-read and txn-persist.
type stepped struct {
	m     *sim.Machine
	name  string
	rate  float64 // nominal normalized ops/s, which sizes the measured phase
	batch int     // operations per timed batch
	step  func(n int) error
	// traced switches the workload's boundary timers on or off; spans
	// records their per-layer metrics over the traced batches.
	traced func(on bool)
	spans  func(t *batches)
	// check runs the workload's final consistency check.
	check func()
}

// measuredOps sizes a measured phase: --seconds times the workload's
// nominal rate, in whole batches. The count depends only on the
// arguments, so every run of a seed does the same simulated work, and
// the phase takes about --seconds of normalized host time.
func (b *bench) measuredOps(rate float64, batch int) int {
	n := int(b.seconds*rate) / batch * batch
	if n < 2*batch {
		n = 2 * batch
	}
	return n
}

// measureStepped runs the measured phase of a stepped workload under
// sim.Machine.Measure — the sim_* metrics and the model counts come
// from it and repeat exactly for a seed — then crashes and recovers a
// fork of the end state and runs the workload's final check.
func (b *bench) measureStepped(w stepped) error {
	n := b.measuredOps(w.rate, w.batch)
	meta := w.m.Engine().MetaCache()
	metaBefore := meta.Stats()
	var t, tt, off batches
	res, err := b.measure(n, func() (*sim.Results, error) {
		return w.m.Measure(w.name, func() error { return b.timed(&t, &tt, &off, n, w.batch, w.step, w.traced) })
	})
	if err != nil {
		return err
	}
	metaAfter := meta.Stats()
	b.phaseMetrics(res, n)
	hits := metaAfter.Hits - metaBefore.Hits
	misses := metaAfter.Misses - metaBefore.Misses
	b.layer["cache.meta_hit_ratio"] = float64(hits) / float64(hits+misses)
	b.layer["cache.meta_evictions_per_op"] = float64(metaAfter.Evictions-metaBefore.Evictions) / float64(n)
	if b.trace {
		w.spans(&tt)
		b.overhead(&tt, &off)
	}
	b.reportBatches(&t)

	checks, err := b.clk.timeLong(func() error {
		// sim_recovery_ms: a fork crashed at the end of the phase.
		if rep, _, _ := b.crashFork(w.m); rep != nil {
			b.recoveryMetrics(rep)
		}
		if err := w.m.Err(); err != nil {
			b.fail("%s: machine error: %v", w.name, err)
		}
		verifyPhase(w.check)
		return nil
	})
	if err != nil {
		return err
	}
	b.e2e["sweep_s"] = b.lastSetup + t.norm + checks.norm
	return nil
}

// measure runs a measured phase of n operations and records what the
// runtime saw during it: allocations per operation, GC cycles and,
// after a forced GC at its end, the live heap.
func (b *bench) measure(n int, phase func() (*sim.Results, error)) (*sim.Results, error) {
	allocs := startAllocWindow()
	gc := gcCycles()
	b.clk.rebracket()
	res, err := phase()
	if err != nil {
		return nil, err
	}
	allocs.finish(b, n)
	b.layer["runtime.gc_cycles"] = float64(gcCycles() - gc)
	b.e2e["mem_mb"] = liveHeapMB()
	b.clk.rebracket()
	return res, nil
}

// timed runs n operations in batches. On a traced run the first half
// feeds t and the second half runs under the CPU profiler; otherwise
// all of them feed t. With boundary timers (traced non-nil), the
// traced half switches them on for every other batch: timed batches
// feed tt and the untimed ones between them feed off, so the two see
// the same stretch of the workload and of the host.
func (b *bench) timed(t, tt, off *batches, n, batch int, step func(int) error, traced func(bool)) error {
	if !b.trace {
		return b.runOps(t, n, batch, step)
	}
	half := n / 2 / batch * batch
	if err := b.runOps(t, half, batch, step); err != nil {
		return err
	}
	b.clk.rebracket()
	return b.profiled(func() error {
		if traced == nil {
			return b.runOps(tt, n-half, batch, step)
		}
		defer traced(false)
		for i := 0; half < n; i++ {
			on := i%2 == 0
			traced(on)
			dst := off
			if on {
				dst = tt
			}
			if err := b.runOps(dst, batch, batch, step); err != nil {
				return err
			}
			half += batch
		}
		return nil
	})
}

// phaseMetrics records the simulated metrics of a measured phase of
// ops operations.
func (b *bench) phaseMetrics(res *sim.Results, ops int) {
	n := float64(ops)
	b.e2e["sim_writes_per_op"] = float64(res.Dev.Writes) / n
	b.e2e["sim_ipc"] = res.IPC
	b.layer["nvm.reads_per_op"] = float64(res.Dev.Reads) / n
	b.layer["secmem.mac_computes_per_op"] = float64(res.Engine.MACComputes) / n
	b.layer["secmem.dirty_meta_frac"] = res.DirtyMetaFrac
	if res.Bitmap != nil {
		b.layer["bitmap.adr_hit_ratio"] = res.Bitmap.HitRatio()
	}
}

// crashFork crashes a fork of m and recovers it, as one attempted
// operation: an error, an unverified recovery or a machine error on the
// fork counts as failed. It returns the report of a verified recovery
// (else nil) and the wall time of the fork and of crash plus recovery.
// The fork leaves m untouched (the Fork invariant).
func (b *bench) crashFork(m *sim.Machine) (rep *secmem.RecoveryReport, forkDur, recoverDur time.Duration) {
	start := time.Now()
	fk := m.Fork()
	forked := time.Now()
	fk.Crash()
	rep, err := fk.Recover()
	forkDur, recoverDur = forked.Sub(start), time.Since(forked)
	b.attempted++
	switch {
	case err != nil:
		b.fail("recovery: %v", err)
	case !rep.Verified:
		b.fail("recovery did not verify")
	case fk.Err() != nil:
		b.fail("recovery: machine error: %v", fk.Err())
	default:
		return rep, forkDur, recoverDur
	}
	return nil, forkDur, recoverDur
}

// verifyPhase runs a workload's final consistency check; its frame
// marks the verify phase in the CPU profile.
func verifyPhase(check func()) { check() }

// checkErr counts a non-nil error from a final check as one failed
// operation.
func (b *bench) checkErr(what string, err error) {
	b.attempted++
	if err != nil {
		b.fail("%s: %v", what, err)
	}
}
