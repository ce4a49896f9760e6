package main

import (
	"bufio"
	"strings"
	"testing"
)

func parseString(s string) (*Report, error) {
	return parse(bufio.NewScanner(strings.NewReader(s)))
}

func TestParseRecordsGOMAXPROCS(t *testing.T) {
	rep, err := parseString(`goos: linux
goarch: amd64
pkg: privateclean
cpu: Test CPU
BenchmarkFigure2a-8   	       3	 412345678 ns/op	   12.5 PrivateClean-err-%	 1000 B/op	 10 allocs/op
BenchmarkPrivatizeJobWorkers/workers1-8   	 90	 13201821 ns/op	  378755 rows/s
BenchmarkPrivatizeJobWorkers/workers8-8   	 90	 13201821 ns/op	  378755 rows/s
BenchmarkLayer/estimator/sum_in/warm   	 357580	      4061 ns/op
BenchmarkFigure2a-8   	       3	 412345679 ns/op
PASS
`)
	if err != nil {
		t.Fatal(err)
	}
	if rep.CPU != "Test CPU" || rep.Pkg != "privateclean" {
		t.Fatalf("header = %+v", rep)
	}
	want := []struct {
		name  string
		procs int
	}{
		{"BenchmarkFigure2a-8", 8},
		{"BenchmarkPrivatizeJobWorkers/workers1-8", 8},
		{"BenchmarkPrivatizeJobWorkers/workers8-8", 8},
		{"BenchmarkLayer/estimator/sum_in/warm", 1},
		{"BenchmarkFigure2a-8", 8}, // a -count repeat is not a duplicate
	}
	if len(rep.Results) != len(want) {
		t.Fatalf("got %d results, want %d", len(rep.Results), len(want))
	}
	for i, w := range want {
		r := rep.Results[i]
		if r.Name != w.name || r.GOMAXPROCS != w.procs {
			t.Errorf("result %d = %s at GOMAXPROCS %d, want %s at %d", i, r.Name, r.GOMAXPROCS, w.name, w.procs)
		}
	}
	if r := rep.Results[0]; r.NsPerOp != 412345678 || r.BytesPerOp != 1000 || r.AllocsPerOp != 10 || r.Metrics["PrivateClean-err-%"] != 12.5 {
		t.Errorf("values = %+v", r)
	}
}

// go test renames the second of two same-named sub-benchmarks "#01"; the
// report must refuse it rather than file two configurations under one key.
func TestParseRejectsDuplicateNames(t *testing.T) {
	for _, in := range []string{
		"BenchmarkPrivatizeParallel/workers1   10   100 ns/op\nBenchmarkPrivatizeParallel/workers1#01   10   100 ns/op\n",
		"BenchmarkPrivatizeParallel/workers1-2   10   100 ns/op\nBenchmarkPrivatizeParallel/workers1#01-2   10   100 ns/op\n",
	} {
		_, err := parseString(in)
		if err == nil || !strings.Contains(err.Error(), "workers1#01") {
			t.Fatalf("parse(%q) error = %v, want a duplicate-name error naming workers1#01", in, err)
		}
	}
}
