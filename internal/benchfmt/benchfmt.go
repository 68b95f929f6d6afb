// Package benchfmt defines the repository's committed benchmark
// document format (BENCH_*.json): `go test -bench -benchmem` output
// parsed into stable records plus an environment block identifying
// where the numbers were measured. cmd/benchjson produces these
// documents; internal/regress and cmd/stardiff compare them.
package benchfmt

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// Result is one parsed benchmark line.
type Result struct {
	Name        string             `json:"name"`
	Runs        int64              `json:"runs"`
	NsPerOp     float64            `json:"ns_per_op"`
	BytesPerOp  int64              `json:"bytes_per_op"`
	AllocsPerOp int64              `json:"allocs_per_op"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

// Doc is the emitted JSON document. Env carries the goos/goarch/cpu
// header lines of the bench run plus toolchain provenance (go_version,
// git_rev) stamped by benchjson.
type Doc struct {
	Env     map[string]string `json:"env,omitempty"`
	Results []Result          `json:"results"`
}

// SetEnv records an environment key, allocating the map on first use.
func (d *Doc) SetEnv(key, value string) {
	if d.Env == nil {
		d.Env = map[string]string{}
	}
	d.Env[key] = value
}

// Parse scans r for benchmark result and environment header lines,
// appending to doc.
func Parse(r io.Reader, doc *Doc) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		for _, key := range []string{"goos", "goarch", "cpu", "pkg"} {
			if v, ok := strings.CutPrefix(line, key+": "); ok {
				v = strings.TrimSpace(v)
				// A multi-package run lists every package it benchmarked.
				if prev := doc.Env[key]; key == "pkg" && prev != "" && prev != v {
					v = prev + " " + v
				}
				doc.SetEnv(key, v)
			}
		}
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		if res, ok := ParseResult(line); ok {
			doc.Results = append(doc.Results, res)
		}
	}
	return sc.Err()
}

// ParseResult parses one result line of the form
//
//	BenchmarkName-8  1000  783 ns/op  28 B/op  0 allocs/op  9.0 hashes/update
func ParseResult(line string) (Result, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 {
		return Result{}, false
	}
	runs, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Result{}, false
	}
	res := Result{Name: fields[0], Runs: runs, BytesPerOp: -1, AllocsPerOp: -1}
	seenNs := false
	// The rest is (value, unit) pairs.
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Result{}, false
		}
		switch unit := fields[i+1]; unit {
		case "ns/op":
			res.NsPerOp = v
			seenNs = true
		case "B/op":
			res.BytesPerOp = int64(v)
		case "allocs/op":
			res.AllocsPerOp = int64(v)
		default:
			if res.Metrics == nil {
				res.Metrics = map[string]float64{}
			}
			res.Metrics[unit] = v
		}
	}
	return res, seenNs
}

// ReadFile loads a committed benchmark document.
func ReadFile(path string) (*Doc, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc Doc
	if err := json.Unmarshal(b, &doc); err != nil {
		return nil, fmt.Errorf("benchfmt: %s: %w", path, err)
	}
	return &doc, nil
}

// Marshal renders the document as committed (indented, trailing
// newline).
func (d *Doc) Marshal() ([]byte, error) {
	b, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// Index returns results keyed by benchmark name.
func (d *Doc) Index() map[string]Result {
	idx := make(map[string]Result, len(d.Results))
	for _, r := range d.Results {
		idx[r.Name] = r
	}
	return idx
}
