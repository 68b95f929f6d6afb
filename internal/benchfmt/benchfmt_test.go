package benchfmt

import (
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: nvmstar
cpu: Example CPU @ 2.70GHz
BenchmarkEngineWriteLine/star-8   1450358   824.1 ns/op   47 B/op   0 allocs/op
BenchmarkRunnerMatrix/parallel=2-8   1   3806700142 ns/op   1.016 speedup-vs-seq
PASS
ok   nvmstar  12.3s
`

func TestParse(t *testing.T) {
	var doc Doc
	if err := Parse(strings.NewReader(sample), &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Results) != 2 {
		t.Fatalf("parsed %d results, want 2: %+v", len(doc.Results), doc.Results)
	}
	if doc.Env["goos"] != "linux" || doc.Env["cpu"] != "Example CPU @ 2.70GHz" {
		t.Fatalf("env not captured: %+v", doc.Env)
	}
	star := doc.Results[0]
	if star.Name != "BenchmarkEngineWriteLine/star-8" || star.NsPerOp != 824.1 ||
		star.BytesPerOp != 47 || star.AllocsPerOp != 0 {
		t.Fatalf("bad result: %+v", star)
	}
	matrix := doc.Results[1]
	if matrix.BytesPerOp != -1 || matrix.AllocsPerOp != -1 {
		t.Fatalf("missing -benchmem fields should be -1: %+v", matrix)
	}
	if matrix.Metrics["speedup-vs-seq"] != 1.016 {
		t.Fatalf("custom metric lost: %+v", matrix)
	}
}

func TestParseResultRejectsNonResults(t *testing.T) {
	for _, line := range []string{
		"BenchmarkX", "BenchmarkX-8 notanumber 5 ns/op", "BenchmarkX-8 10 5 B/op",
	} {
		if _, ok := ParseResult(line); ok {
			t.Fatalf("accepted %q", line)
		}
	}
}

func TestMarshalRoundTrip(t *testing.T) {
	var doc Doc
	if err := Parse(strings.NewReader(sample), &doc); err != nil {
		t.Fatal(err)
	}
	doc.SetEnv("go_version", "go1.24.0")
	b, err := doc.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasSuffix(string(b), "\n") {
		t.Fatal("marshaled doc lacks trailing newline")
	}
	idx := doc.Index()
	if _, ok := idx["BenchmarkEngineWriteLine/star-8"]; !ok {
		t.Fatalf("index missing result: %v", idx)
	}
}

func TestParseMultiPackageEnv(t *testing.T) {
	var doc Doc
	in := sample + "goos: linux\npkg: nvmstar/internal/cache\nBenchmarkCacheLookup-8 100 40 ns/op 0 B/op 0 allocs/op\n"
	if err := Parse(strings.NewReader(in), &doc); err != nil {
		t.Fatal(err)
	}
	if got := doc.Env["pkg"]; got != "nvmstar nvmstar/internal/cache" {
		t.Fatalf("pkg = %q, want both packages", got)
	}
	if len(doc.Results) != 3 {
		t.Fatalf("parsed %d results, want 3", len(doc.Results))
	}
}
