package experiments

import (
	"fmt"
	"sort"
	"strconv"
	"sync"

	"nvmstar/internal/sim"
	"nvmstar/internal/telemetry"
)

// LatencyAggregator folds the per-operation latency breakdowns of a
// sweep's cells into per-(workload, scheme) distributions. It is the
// WithResultObserver consumer behind starreport -latency: cells whose
// runs carried sim.Config.Latency contribute their Results.Latency as
// they complete (bucket vectors merge deterministically; percentiles
// re-derive from the merged buckets); cells without one are ignored.
// All methods are safe for concurrent use — Observe runs on pool
// workers while MetricFamilies may be serving a live /metrics scrape.
type LatencyAggregator struct {
	mu      sync.Mutex
	entries map[attrKey]*latEntry
}

type latEntry struct {
	lb    *sim.LatencyBreakdown
	cells int
}

// NewLatencyAggregator returns an empty aggregator.
func NewLatencyAggregator() *LatencyAggregator {
	return &LatencyAggregator{entries: make(map[attrKey]*latEntry)}
}

// Observe folds one completed cell into the aggregate. Its signature
// matches WithResultObserver, so wiring is
// WithResultObserver(agg.Observe). Results without a Latency breakdown
// are skipped.
func (a *LatencyAggregator) Observe(c Cell, res *sim.Results) {
	if a == nil || res == nil || res.Latency == nil {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	k := attrKey{c.Workload, c.Scheme}
	e := a.entries[k]
	if e == nil {
		a.entries[k] = &latEntry{lb: res.Latency.Copy(), cells: 1}
		return
	}
	e.lb.Accumulate(res.Latency)
	e.cells++
}

// LatencyRow is one (workload, scheme) aggregate: the breakdown merged
// over the cells observed for that pair.
type LatencyRow struct {
	Workload string
	Scheme   string
	Cells    int
	Latency  *sim.LatencyBreakdown
}

// Rows snapshots the aggregates in deterministic order: workloads in
// the paper's order, schemes in the evaluation's (wb, star, anubis,
// phoenix, strict), unknowns after, lexicographic. Breakdowns are deep
// copies, safe to hold while the sweep keeps running.
func (a *LatencyAggregator) Rows() []LatencyRow {
	if a == nil {
		return nil
	}
	a.mu.Lock()
	rows := make([]LatencyRow, 0, len(a.entries))
	for k, e := range a.entries {
		rows = append(rows, LatencyRow{
			Workload: k.workload,
			Scheme:   k.scheme,
			Cells:    e.cells,
			Latency:  e.lb.Copy(),
		})
	}
	a.mu.Unlock()

	sort.Slice(rows, func(i, j int) bool {
		return paperOrderLess(rows[i].Workload, rows[i].Scheme, rows[j].Workload, rows[j].Scheme)
	})
	return rows
}

// MetricFamilies implements telemetry.MetricsSource, exposing the
// aggregate on /metrics alongside the machine-level series:
// latency_cells{workload,scheme} counts observed cells,
// latency_count{workload,scheme,op} the merged observation counts and
// latency_p99_ns{workload,scheme,op} the merged tails (ops with
// observations only, to keep the exposition tight).
func (a *LatencyAggregator) MetricFamilies() []telemetry.MetricFamily {
	rows := a.Rows()
	if len(rows) == 0 {
		return nil
	}
	cells := telemetry.MetricFamily{Name: "latency_cells", Type: "gauge"}
	count := telemetry.MetricFamily{Name: "latency_count", Type: "gauge"}
	p99 := telemetry.MetricFamily{Name: "latency_p99_ns", Type: "gauge"}
	for _, r := range rows {
		base := []telemetry.Label{
			{Key: "workload", Value: r.Workload},
			{Key: "scheme", Value: r.Scheme},
		}
		cells.Samples = append(cells.Samples, telemetry.Sample{
			Labels: base, Value: float64(r.Cells),
		})
		for _, o := range r.Latency.Ops {
			if o.Count == 0 {
				continue
			}
			labels := append(append([]telemetry.Label(nil), base...),
				telemetry.Label{Key: "op", Value: o.Op})
			count.Samples = append(count.Samples, telemetry.Sample{Labels: labels, Value: float64(o.Count)})
			p99.Samples = append(p99.Samples, telemetry.Sample{Labels: labels, Value: o.P99Ns})
		}
	}
	return []telemetry.MetricFamily{cells, count, p99}
}

// latencyHeader is the shared column set of Markdown and Table.
var latencyHeader = []string{"workload", "scheme", "op", "count", "p50 ns", "p90 ns", "p99 ns", "p99.9 ns", "max ns"}

// latencyCells renders the row set shared by Markdown and Table: one
// line per (workload, scheme, op) with observations.
func latencyCells(rows []LatencyRow) [][]string {
	var cells [][]string
	for _, r := range rows {
		for _, o := range r.Latency.Ops {
			if o.Count == 0 {
				continue
			}
			cells = append(cells, []string{
				r.Workload, r.Scheme, o.Op,
				strconv.FormatUint(o.Count, 10),
				fmt.Sprintf("%.1f", o.P50Ns),
				fmt.Sprintf("%.1f", o.P90Ns),
				fmt.Sprintf("%.1f", o.P99Ns),
				fmt.Sprintf("%.1f", o.P999Ns),
				fmt.Sprintf("%.0f", o.MaxNs),
			})
		}
	}
	return cells
}

// Markdown renders the aggregate as the report's tail-latency table:
// one row per (workload, scheme, op) with observations, carrying the
// merged count and the p50/p90/p99/p99.9/max estimates. Empty
// aggregators render an explanatory stub instead of an empty table.
func (a *LatencyAggregator) Markdown() string {
	rows := a.Rows()
	out := "## Tail latency\n\n"
	if len(rows) == 0 {
		return out + "No latency-recording cells observed (observatory disabled?).\n"
	}
	out += "| " + latencyHeader[0]
	for _, h := range latencyHeader[1:] {
		out += " | " + h
	}
	out += " |\n|"
	for range latencyHeader {
		out += "---|"
	}
	out += "\n"
	for _, row := range latencyCells(rows) {
		out += "| " + row[0]
		for _, c := range row[1:] {
			out += " | " + c
		}
		out += " |\n"
	}
	return out
}

// Table renders the aggregate as an aligned text table for CLI output,
// mirroring Markdown's rows.
func (a *LatencyAggregator) Table() string {
	rows := a.Rows()
	if len(rows) == 0 {
		return "no latency-recording cells observed\n"
	}
	return FormatTable(latencyHeader, latencyCells(rows))
}
