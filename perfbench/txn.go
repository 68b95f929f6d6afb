package main

import (
	"nvmstar/internal/heap"
	"nvmstar/internal/sim"
)

// txn-persist: the paper's tpcc workload under STAR, stepped through a
// sim.Session. Every transaction persists a redo log, its rows and a
// commit record, so the same caches that kv-read loads now serve a
// write/persist path: engine, MACs, counter bumps, cache-tree and
// bitmap/ADR.

const (
	txnWorkload = "tpcc"
	txnWarmOps  = 20_000 // fills the modelled caches
	txnRate     = 30_000 // nominal normalized ops/s
	txnBatchOps = 1_000
)

func runTxnPersist(b *bench) error {
	cfg := sim.Default()
	cfg.Scheme = "star"
	cfg.Seed = b.seed
	var (
		m   *sim.Machine
		s   *sim.Session
		mem *timedMem
	)
	err := b.setupRepeated(setupReps, func() { m, s, mem = nil, nil, nil }, func() error {
		var err error
		if m, err = sim.NewMachine(cfg); err != nil {
			return err
		}
		// Only a traced run interposes the timer, so the untraced run
		// measures exactly NewSession's path.
		var front heap.Memory = m
		if b.trace {
			mem = &timedMem{m: m}
			front = mem
		}
		if s, err = m.NewSessionOn(txnWorkload, front); err != nil {
			return err
		}
		return s.StepN(txnWarmOps)
	})
	if err != nil {
		return err
	}
	w := stepped{
		m:     m,
		name:  txnWorkload,
		rate:  txnRate,
		batch: txnBatchOps,
		step: func(n int) error {
			b.attempted += int64(n)
			return s.StepN(n)
		},
		traced: func(on bool) { mem.on = on },
		spans: func(t *batches) {
			b.layer["sim.mem_calls_per_op"] = float64(mem.calls) / float64(t.ops)
			b.layer["sim.mem_busy_frac"] = mem.busy.Seconds() / t.raw
		},
		check: func() { b.checkErr("tpcc verify", s.Verify()) },
	}
	return b.measureStepped(w)
}
