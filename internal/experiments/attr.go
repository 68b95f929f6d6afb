package experiments

import (
	"fmt"
	"sort"
	"strconv"
	"sync"

	"nvmstar/internal/nvm"
	"nvmstar/internal/sim"
	"nvmstar/internal/telemetry"
	"nvmstar/internal/workload"
)

// AttrAggregator folds the write-cause breakdowns of a sweep's cells
// into per-(workload, scheme) totals. It is the WithResultObserver
// consumer behind starreport -attr: cells whose runs carried
// sim.Config.Attr contribute their WriteBreakdown as they complete;
// cells without one (attribution disabled) are ignored. All methods
// are safe for concurrent use — Observe runs on pool workers while
// MetricFamilies may be serving a live /metrics scrape.
type AttrAggregator struct {
	mu      sync.Mutex
	entries map[attrKey]*attrEntry
}

type attrKey struct {
	workload string
	scheme   string
}

type attrEntry struct {
	b     *nvm.Breakdown
	cells int
}

// NewAttrAggregator returns an empty aggregator.
func NewAttrAggregator() *AttrAggregator {
	return &AttrAggregator{entries: make(map[attrKey]*attrEntry)}
}

// Observe folds one completed cell into the aggregate. Its signature
// matches WithResultObserver, so wiring is
// WithResultObserver(agg.Observe). Results without a WriteBreakdown
// are skipped.
func (a *AttrAggregator) Observe(c Cell, res *sim.Results) {
	if a == nil || res == nil || res.WriteBreakdown == nil {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	k := attrKey{c.Workload, c.Scheme}
	e := a.entries[k]
	if e == nil {
		a.entries[k] = &attrEntry{b: res.WriteBreakdown.Sub(nil), cells: 1}
		return
	}
	e.b.Accumulate(res.WriteBreakdown)
	e.cells++
}

// AttrRow is one (workload, scheme) aggregate: the breakdown summed
// over the Cells observed for that pair.
type AttrRow struct {
	Workload  string
	Scheme    string
	Cells     int
	Breakdown *nvm.Breakdown
}

// Rows snapshots the aggregates in deterministic order: workloads in
// the paper's order, schemes in the evaluation's (wb, star, anubis,
// phoenix, strict), unknowns after, lexicographic. Breakdowns are deep
// copies, safe to hold while the sweep keeps running.
func (a *AttrAggregator) Rows() []AttrRow {
	if a == nil {
		return nil
	}
	a.mu.Lock()
	rows := make([]AttrRow, 0, len(a.entries))
	for k, e := range a.entries {
		rows = append(rows, AttrRow{
			Workload:  k.workload,
			Scheme:    k.scheme,
			Cells:     e.cells,
			Breakdown: e.b.Sub(nil),
		})
	}
	a.mu.Unlock()

	sort.Slice(rows, func(i, j int) bool {
		return paperOrderLess(rows[i].Workload, rows[i].Scheme, rows[j].Workload, rows[j].Scheme)
	})
	return rows
}

// paperOrderLess orders (workload, scheme) pairs as the paper's
// figures do: workloads in workload.Names order, schemes wb, star,
// anubis, phoenix, strict; names outside those lists sort after them,
// alphabetically.
func paperOrderLess(wa, sa, wb, sb string) bool {
	if wa != wb {
		ra, rb := paperRank(workload.Names(), wa), paperRank(workload.Names(), wb)
		if ra != rb {
			return ra < rb
		}
		return wa < wb
	}
	schemes := []string{"wb", "star", "anubis", "phoenix", "strict"}
	if ra, rb := paperRank(schemes, sa), paperRank(schemes, sb); ra != rb {
		return ra < rb
	}
	return sa < sb
}

// paperRank is name's index in order, or len(order) when absent.
func paperRank(order []string, name string) int {
	for i, n := range order {
		if n == name {
			return i
		}
	}
	return len(order)
}

// MetricFamilies implements telemetry.MetricsSource, exposing the
// aggregate on /metrics alongside the device-level series:
// attr_cells{workload,scheme} counts observed cells and
// attr_writes{workload,scheme,cause} carries the summed per-cause
// write counts (nonzero causes only, to keep the exposition tight).
func (a *AttrAggregator) MetricFamilies() []telemetry.MetricFamily {
	rows := a.Rows()
	if len(rows) == 0 {
		return nil
	}
	cells := telemetry.MetricFamily{Name: "attr_cells", Type: "gauge"}
	writes := telemetry.MetricFamily{Name: "attr_writes", Type: "gauge"}
	for _, r := range rows {
		base := []telemetry.Label{
			{Key: "workload", Value: r.Workload},
			{Key: "scheme", Value: r.Scheme},
		}
		cells.Samples = append(cells.Samples, telemetry.Sample{
			Labels: base, Value: float64(r.Cells),
		})
		for _, c := range r.Breakdown.Causes {
			if c.Writes == 0 {
				continue
			}
			writes.Samples = append(writes.Samples, telemetry.Sample{
				Labels: append(append([]telemetry.Label(nil), base...),
					telemetry.Label{Key: "cause", Value: c.Cause}),
				Value: float64(c.Writes),
			})
		}
	}
	return []telemetry.MetricFamily{cells, writes}
}

// Markdown renders the aggregate as the report's write-cause
// breakdown table: one row per (workload, scheme), a column per cause
// that is nonzero anywhere, each cell the cause's share of that row's
// writes. Empty aggregators render an explanatory stub instead of an
// empty table.
func (a *AttrAggregator) Markdown() string {
	rows := a.Rows()
	out := "## Write-cause breakdown\n\n"
	if len(rows) == 0 {
		return out + "No attributed cells observed (attribution disabled?).\n"
	}

	// Columns: every cause with writes in at least one row, in cause
	// order (the Breakdown.Causes order is the Cause enum's).
	nCauses := len(rows[0].Breakdown.Causes)
	used := make([]bool, nCauses)
	for _, r := range rows {
		for i, c := range r.Breakdown.Causes {
			if c.Writes > 0 {
				used[i] = true
			}
		}
	}
	var causes []int
	for i, u := range used {
		if u {
			causes = append(causes, i)
		}
	}

	out += "| workload | scheme | cells | writes |"
	for _, ci := range causes {
		out += " " + rows[0].Breakdown.Causes[ci].Cause + " |"
	}
	out += "\n|---|---|---|---|"
	for range causes {
		out += "---|"
	}
	out += "\n"
	for _, r := range rows {
		out += fmt.Sprintf("| %s | %s | %d | %d |", r.Workload, r.Scheme, r.Cells, r.Breakdown.Total)
		for _, ci := range causes {
			c := r.Breakdown.Causes[ci]
			if r.Breakdown.Total == 0 {
				out += " — |"
				continue
			}
			out += fmt.Sprintf(" %.1f%% |", 100*float64(c.Writes)/float64(r.Breakdown.Total))
		}
		out += "\n"
	}
	return out
}

// Table renders the aggregate as an aligned text table for CLI
// output, mirroring Markdown's rows.
func (a *AttrAggregator) Table() string {
	rows := a.Rows()
	if len(rows) == 0 {
		return "no attributed cells observed\n"
	}
	header := []string{"workload", "scheme", "cells", "writes"}
	nCauses := len(rows[0].Breakdown.Causes)
	used := make([]bool, nCauses)
	for _, r := range rows {
		for i, c := range r.Breakdown.Causes {
			if c.Writes > 0 {
				used[i] = true
			}
		}
	}
	var causes []int
	for i, u := range used {
		if u {
			causes = append(causes, i)
			header = append(header, rows[0].Breakdown.Causes[i].Cause)
		}
	}
	var cells [][]string
	for _, r := range rows {
		row := []string{r.Workload, r.Scheme, strconv.Itoa(r.Cells), strconv.FormatUint(r.Breakdown.Total, 10)}
		for _, ci := range causes {
			c := r.Breakdown.Causes[ci]
			if r.Breakdown.Total == 0 {
				row = append(row, "—")
				continue
			}
			row = append(row, fmt.Sprintf("%.1f%%", 100*float64(c.Writes)/float64(r.Breakdown.Total)))
		}
		cells = append(cells, row)
	}
	return FormatTable(header, cells)
}
