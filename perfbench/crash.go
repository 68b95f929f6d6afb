package main

import (
	"nvmstar/internal/cache"
	"nvmstar/internal/sim"
)

// crash-recover: a STAR machine with a 1 MiB metadata cache runs the
// hash workload into a dirty-metadata steady state (its set-up alone
// leaves most of the cache dirty); then each
// operation is one Fork → Crash → Recover round on that state, checked
// for a verified recovery. Recovery (the STAR scheme, the bitmap scan,
// the cache-tree rebuild) and the copy-on-write fork take nearly all
// the time — work that is under 1% of the paper sweep.

const (
	crashWorkload  = "hash"
	crashMetaCache = 1 << 20
	// crashOps is the dirtying run: the sweep's crash point, so at seed
	// 1 the state recovered is Fig. 14b's 1 MiB STAR cell.
	crashOps  = sweepOps
	crashRate = 18 // nominal normalized rounds/s
)

// crashConfig is the sweep's machine with a 1 MiB metadata cache.
func crashConfig(seed uint64) sim.Config {
	cfg := sweepConfig(seed)
	cfg.Scheme = "star"
	cfg.MetaCache = cache.Config{SizeBytes: crashMetaCache, Ways: 8}
	return cfg
}

func runCrashRecover(b *bench) error {
	cfg := crashConfig(b.seed)
	var (
		base *sim.Machine
		res  *sim.Results
	)
	err := b.setupRepeated(setupReps, func() { base, res = nil, nil }, func() error {
		var err error
		if base, err = sim.NewMachine(cfg); err != nil {
			return err
		}
		s, err := base.NewSession(crashWorkload)
		if err != nil {
			return err
		}
		res, err = base.Measure(crashWorkload, func() error { return s.StepN(crashOps) })
		return err
	})
	if err != nil {
		return err
	}
	b.e2e["sim_ipc"] = res.IPC
	b.layer["secmem.dirty_meta_frac"] = res.DirtyMetaFrac
	b.note("crash-recover: %.1f%% of the metadata cache dirty at the crash point", 100*res.DirtyMetaFrac)

	var (
		forkMs, recoverMs []float64
		first             float64 // the first round's modelled recovery time
	)
	round := func(n int) error {
		for i := 0; i < n; i++ {
			rep, forkDur, recoverDur := b.crashFork(base)
			forkMs = append(forkMs, 1e3*forkDur.Seconds())
			recoverMs = append(recoverMs, 1e3*recoverDur.Seconds())
			switch {
			case rep == nil:
			case first == 0:
				first = rep.TimeNs()
				b.recoveryMetrics(rep)
				b.e2e["sim_writes_per_op"] = float64(rep.NodeWrites)
			case rep.TimeNs() != first:
				// Every round recovers the same state.
				b.fail("crash-recover: round %d modelled %.0f ns, the first %.0f ns", len(forkMs), rep.TimeNs(), first)
			}
		}
		return nil
	}

	n := b.measuredOps(crashRate, 1)
	var t, tt batches
	_, err = b.measure(n, func() (*sim.Results, error) {
		return nil, b.timed(&t, &tt, nil, n, 1, round, nil)
	})
	if err != nil {
		return err
	}
	if b.trace {
		// Every round does the same work, so the halves compare.
		b.overhead(&tt, &t)
	}
	b.reportBatches(&t)
	b.e2e["sweep_s"] = b.lastSetup + t.norm
	b.layer["recovery.fork_ms_p50"] = median(forkMs)
	b.layer["recovery.recover_ms_p50"] = median(recoverMs)
	if err := base.Err(); err != nil {
		b.fail("crash-recover: machine error: %v", err)
	}
	return nil
}
