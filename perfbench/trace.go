package main

import (
	"bytes"
	"fmt"
	"runtime/pprof"
	"time"

	"nvmstar"
	"nvmstar/internal/heap"
	"nvmstar/internal/secmem"
)

// Boundary timers. Each wraps calls into one layer from outside and,
// when on, counts them and sums their wall time; when off it only
// forwards.

// apiTimer wraps kv-read's calls into the public nvmstar.System API.
type apiTimer struct {
	on                      bool
	loads, stores, persists int64
	busy                    time.Duration
}

func (a *apiTimer) calls() int64 { return a.loads + a.stores + a.persists }

func (a *apiTimer) load(sys *nvmstar.System, addr uint64) []byte {
	if !a.on {
		return sys.Load(addr, nvmstar.LineSize)
	}
	start := time.Now()
	v := sys.Load(addr, nvmstar.LineSize)
	a.busy += time.Since(start)
	a.loads++
	return v
}

// store writes one line and persists it: a Store and a PersistRange.
func (a *apiTimer) store(sys *nvmstar.System, addr uint64, line []byte) {
	if !a.on {
		sys.Store(addr, line)
		sys.PersistRange(addr, len(line))
		return
	}
	start := time.Now()
	sys.Store(addr, line)
	sys.PersistRange(addr, len(line))
	a.busy += time.Since(start)
	a.stores++
	a.persists++
}

// timedMem is a heap.Memory interposer between a workload session and
// the machine: the machine's share of each step is the time spent in
// these calls, and the workload's own share is the rest.
type timedMem struct {
	m     heap.Memory
	on    bool
	calls int64
	busy  time.Duration
}

func (t *timedMem) Load(addr uint64, buf []byte) {
	if !t.on {
		t.m.Load(addr, buf)
		return
	}
	start := time.Now()
	t.m.Load(addr, buf)
	t.busy += time.Since(start)
	t.calls++
}

func (t *timedMem) Store(addr uint64, data []byte) {
	if !t.on {
		t.m.Store(addr, data)
		return
	}
	start := time.Now()
	t.m.Store(addr, data)
	t.busy += time.Since(start)
	t.calls++
}

func (t *timedMem) Persist(addr uint64, size int) {
	if !t.on {
		t.m.Persist(addr, size)
		return
	}
	start := time.Now()
	t.m.Persist(addr, size)
	t.busy += time.Since(start)
	t.calls++
}

func (t *timedMem) Fence() {
	if !t.on {
		t.m.Fence()
		return
	}
	start := time.Now()
	t.m.Fence()
	t.busy += time.Since(start)
	t.calls++
}

// profiled runs fn under the CPU profiler and records the profile's
// per-module self-time and per-phase shares as per-layer metrics.
func (b *bench) profiled(fn func() error) error {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	err := fn()
	pprof.StopCPUProfile()
	if err != nil {
		return err
	}
	stacks, err := decodeProfile(buf.Bytes())
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	for name, v := range bucketProfile(stacks) {
		b.layer[name] = v
	}
	return nil
}

// recoveryMetrics records one recovery's modelled figures.
func (b *bench) recoveryMetrics(rep *secmem.RecoveryReport) {
	b.e2e["sim_recovery_ms"] = rep.TimeNs() / 1e6
	b.layer["recovery.stale_nodes"] = float64(rep.StaleNodes)
	b.layer["recovery.line_accesses"] = float64(rep.LineAccesses())
	ph := rep.PhaseTimes()
	b.layer["recovery.scan_ms"] = ph.ScanNs / 1e6
	b.layer["recovery.restore_ms"] = ph.RestoreNs / 1e6
	b.layer["recovery.writeback_ms"] = ph.WritebackNs / 1e6
}
