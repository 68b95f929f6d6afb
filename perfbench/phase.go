package main

import (
	"fmt"
	"os"
	"runtime"
)

// batches accumulates the timed batches of a measured phase.
type batches struct {
	ops     int       // operations measured
	raw     float64   // summed wall seconds
	norm    float64   // summed reference-normalized seconds
	perOpUs []float64 // normalized µs per operation, one entry per batch
	rates   []float64 // normalized operations per second, one per batch
}

func (t *batches) add(iv interval, ops int) {
	t.ops += ops
	t.raw += iv.raw
	t.norm += iv.norm
	t.perOpUs = append(t.perOpUs, 1e6*iv.norm/float64(ops))
	t.rates = append(t.rates, float64(ops)/iv.norm)
}

// opsPerSec is the median batch's normalized throughput. A burst of
// host interference slows a few batches; the median ignores them
// where a mean over the phase would not (the tail reports them).
func (t *batches) opsPerSec() float64 { return median(t.rates) }

// runOps runs exactly ops operations in batches of at most size, each
// batch bracketed by the reference kernel.
func (b *bench) runOps(t *batches, ops, size int, step func(n int) error) error {
	for done := 0; done < ops; {
		n := size
		if ops-done < n {
			n = ops - done
		}
		iv, err := b.clk.time(func() error { return step(n) })
		if err != nil {
			return err
		}
		t.add(iv, n)
		done += n
	}
	return nil
}

// setupRepeated times reps set-ups, each bracketed by the reference
// kernel after drop releases the previous repetition's state and a
// forced GC collects it, and records their median as setup_s. The
// state the last set-up builds is the one the run measures.
func (b *bench) setupRepeated(reps int, drop func(), setup func() error) error {
	var norms []float64
	defer func() { b.note("set-ups took %.3g s (normalized)", norms) }()
	for i := 0; i < reps; i++ {
		drop()
		runtime.GC()
		b.clk.rebracket()
		iv, err := b.clk.timeLong(setup)
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		norms = append(norms, iv.norm)
		b.lastSetup = iv.norm
	}
	b.e2e["setup_s"] = median(norms)
	return nil
}

// overhead records trace.overhead_frac: the traced batches'
// throughput against that of comparable untraced ones.
func (b *bench) overhead(traced, untraced *batches) {
	b.layer["trace.overhead_frac"] = (traced.opsPerSec() - untraced.opsPerSec()) / untraced.opsPerSec()
}

// reportBatches records the host-time metrics of a measured phase from
// its untraced batches: throughput, per-operation median and tail.
func (b *bench) reportBatches(t *batches) {
	b.e2e["ops_per_s"] = t.opsPerSec()
	b.e2e["op_us_p50"] = median(t.perOpUs)
	v, pct, n, ok := tail(t.perOpUs)
	if !ok {
		// Too few batches for a tail: report the worst one.
		s := sortedCopy(t.perOpUs)
		v, pct = s[len(s)-1], 100
	}
	b.e2e["op_us_tail"] = v
	b.layer["op_us_tail.pct"] = pct
	b.layer["op_us_tail.samples"] = float64(n)
	b.layer["host.raw_ops_per_s"] = float64(t.ops) / t.raw
	b.layer["host.ref_ms"] = b.clk.refMs()
	b.note("op_us_tail is p%g over %d batches", pct, n)
}

// note prints a diagnostic line to standard error.
func (b *bench) note(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}

// liveHeapMB forces a GC and returns the live heap in MiB, less the
// reference kernel's tables.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc-refTableBytes) / (1 << 20)
}

// allocWindow brackets a deterministic window of operations with the
// runtime's allocation counters.
type allocWindow struct{ before runtime.MemStats }

func startAllocWindow() *allocWindow {
	w := &allocWindow{}
	runtime.ReadMemStats(&w.before)
	return w
}

// finish records the per-operation allocation metrics over ops.
func (w *allocWindow) finish(b *bench, ops int) {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	b.layer["runtime.alloc_bytes_per_op"] = float64(after.TotalAlloc-w.before.TotalAlloc) / float64(ops)
	b.layer["runtime.allocs_per_op"] = float64(after.Mallocs-w.before.Mallocs) / float64(ops)
}

// gcCycles returns the runtime's completed GC cycle count.
func gcCycles() uint32 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.NumGC
}
