// Command perfbench is the repository's end-to-end benchmark. It
// drives one workload per run from a single process — one simulating
// goroutine, GOMAXPROCS 1, runner parallelism 1, shards 0 — measures it for a fixed
// host time, checks every output, and prints one JSON object as the
// last line of standard output:
//
//	perfbench --workload kv-read --seed 7 --seconds 15 --trace 0
//
// With --trace 0 the object carries the end-to-end metrics: host
// times normalized to a bracketing reference kernel (see clock.go) and
// simulated quantities reported exactly. With --trace 1 the same
// workload runs half untraced and half under a CPU profile and
// boundary timers, and the object carries the per-layer metrics
// instead. README.md documents the workloads and the metric map.
//
// Run it from the repository root through run.sh, which builds the
// binary first.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
)

// workloads maps each --workload name to the function that runs it.
var workloads = map[string]func(*bench) error{
	"kv-read":       runKVRead,
	"txn-persist":   runTxnPersist,
	"crash-recover": runCrashRecover,
	"paper-sweep":   runPaperSweep,
}

// endToEnd and perLayer are the metric names and units each mode
// emits; every workload emits every name of its mode.
var endToEnd = map[string]string{
	"setup_s":           "s",
	"ops_per_s":         "1/s",
	"op_us_p50":         "us",
	"op_us_tail":        "us",
	"sweep_s":           "s",
	"mem_mb":            "MB",
	"sim_writes_per_op": "lines/op",
	"sim_ipc":           "ipc",
	"sim_recovery_ms":   "ms",
}

var perLayer = map[string]string{
	"cache.self_frac":                  "frac",
	"counter.self_frac":                "frac",
	"simcrypto.self_frac":              "frac",
	"secmem.self_frac":                 "frac",
	"schemes.self_frac":                "frac",
	"cachetree.self_frac":              "frac",
	"bitmap.self_frac":                 "frac",
	"nvm.self_frac":                    "frac",
	"paged.self_frac":                  "frac",
	"sim.self_frac":                    "frac",
	"heap.self_frac":                   "frac",
	"workload.self_frac":               "frac",
	"experiments.self_frac":            "frac",
	"runtime.gc_frac":                  "frac",
	"phase.setup_frac":                 "frac",
	"phase.measure_frac":               "frac",
	"phase.verify_frac":                "frac",
	"phase.fork_frac":                  "frac",
	"phase.recover_frac":               "frac",
	"profile.samples":                  "count",
	"sim.mem_calls_per_op":             "calls/op",
	"sim.mem_busy_frac":                "frac",
	"api.load_calls_per_op":            "calls/op",
	"api.persist_calls_per_op":         "calls/op",
	"experiments.scheme_comparison_s":  "s",
	"experiments.table2_s":             "s",
	"experiments.fig14a_s":             "s",
	"experiments.fig14b_s":             "s",
	"recovery.fork_ms_p50":             "ms",
	"recovery.recover_ms_p50":          "ms",
	"cache.meta_hit_ratio":             "ratio",
	"cache.meta_evictions_per_op":      "1/op",
	"secmem.mac_computes_per_op":       "1/op",
	"nvm.reads_per_op":                 "lines/op",
	"bitmap.adr_hit_ratio":             "ratio",
	"secmem.dirty_meta_frac":           "frac",
	"recovery.stale_nodes":             "count",
	"recovery.line_accesses":           "count",
	"recovery.scan_ms":                 "ms",
	"recovery.restore_ms":              "ms",
	"recovery.writeback_ms":            "ms",
	"experiments.cells":                "count",
	"experiments.distinct_cell_frac":   "frac",
	"experiments.machines_reused_frac": "frac",
	"experiments.peak_live_mb":         "MB",
	"runtime.alloc_bytes_per_op":       "B/op",
	"runtime.allocs_per_op":            "1/op",
	"runtime.gc_cycles":                "count",
	"host.ref_ms":                      "ms",
	"host.raw_ops_per_s":               "1/s",
	"trace.overhead_frac":              "frac",
	"op_us_tail.pct":                   "%",
	"op_us_tail.samples":               "count",
}

// bench is one run's settings, reference clock and accumulated output.
type bench struct {
	seed    uint64
	seconds float64 // sizes the measured phase
	trace   bool
	clk     *refClock
	// lastSetup is the normalized time of the set-up the run measures.
	lastSetup float64

	attempted int64
	failed    int64
	failures  []string // the first few failure descriptions, for stderr

	e2e   map[string]float64
	layer map[string]float64
}

// fail counts one failed operation.
func (b *bench) fail(format string, args ...any) {
	b.failed++
	if len(b.failures) < 5 {
		b.failures = append(b.failures, fmt.Sprintf(format, args...))
	}
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultOut struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func main() { os.Exit(run()) }

func run() int {
	name := flag.String("workload", "", "workload: kv-read, txn-persist, crash-recover or paper-sweep")
	seed := flag.Uint64("seed", 1, "workload seed; paper-sweep at seed 1 is gated against BASELINE_manifest.json")
	seconds := flag.Float64("seconds", 15, "sizes the measured phase to about this many normalized seconds")
	trace := flag.Int("trace", 0, "1 = traced run emitting the per-layer metrics")
	flag.Parse()

	drive, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown --workload %q\n", *name)
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	if _, err := os.Stat(baselineManifest); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: run from the repository root: %v\n", err)
		return 2
	}
	// One simulating goroutine on one OS thread at a time. The GC then
	// runs on that thread too, so its work lands in the run's own host
	// time instead of contending with the simulator from the host's
	// other CPU: on the tuning host this halved the run-to-run spread
	// of txn-persist's median and tail batch times (to about 3%).
	runtime.GOMAXPROCS(1)

	b := &bench{
		seed:    *seed,
		seconds: *seconds,
		trace:   *trace == 1,
		clk:     newRefClock(),
		e2e:     map[string]float64{},
		layer:   map[string]float64{},
	}
	if err := drive(b); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	want, got := endToEnd, b.e2e
	if b.trace {
		want, got = perLayer, b.layer
	}
	out := resultOut{
		Correct:   b.failed == 0,
		Attempted: b.attempted,
		Failed:    b.failed,
		Metrics:   map[string]metricOut{},
	}
	// A per-layer metric a workload has no such layer for reads 0; a
	// missing end-to-end metric is a bug unless an operation failed.
	var missing []string
	for name, unit := range want {
		v, ok := got[name]
		if !ok && !b.trace {
			missing = append(missing, name)
		}
		out.Metrics[name] = metricOut{Value: v, Unit: unit}
	}
	if len(missing) > 0 && b.failed == 0 {
		sort.Strings(missing)
		fmt.Fprintf(os.Stderr, "perfbench: %s: metrics not measured: %v\n", *name, missing)
		return 1
	}
	for _, f := range b.failures {
		fmt.Fprintf(os.Stderr, "perfbench: %s: FAILED: %s\n", *name, f)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !out.Correct || out.Attempted < 1 {
		return 1
	}
	return 0
}
