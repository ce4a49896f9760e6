// Command perfbench is the repository benchmark. It drives the privateclean
// services in-process, through their public entry points, under a
// closed-loop load built from a seed, checks every answer, and prints one
// JSON result line: the end-to-end metrics by default, the per-layer
// metrics with --trace 1.
//
// Run it from the repository root through the wrapper, which builds it:
//
//	bash perfbench/run.sh --workload serve-stats --seed 1 --seconds 30 --trace 0
//
// Workloads: serve-resident, serve-stats, ingest. README.md in this
// directory maps every metric to its layer and workload.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

func main() {
	workload := flag.String("workload", "", "workload to run: "+fmt.Sprint(workloadNames()))
	seed := flag.Int64("seed", 1, "seed every generated input derives from")
	seconds := flag.Float64("seconds", 30, "length of the measured window in seconds")
	trace := flag.Int("trace", 0, "0 prints end-to-end metrics; 1 runs traced and prints per-layer metrics")
	workdir := flag.String("workdir", filepath.Join(".bench_build", "perfbench-work"), "directory for fixtures and traces")
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fail(fmt.Errorf("--trace must be 0 or 1, got %d", *trace))
	}
	if *seconds <= 0 {
		fail(fmt.Errorf("--seconds must be positive, got %v", *seconds))
	}
	o := options{
		Workload: *workload,
		Seed:     *seed,
		Window:   time.Duration(*seconds * float64(time.Second)),
		Traced:   *trace == 1,
		Workdir:  *workdir,
		Sizes:    fullSizes(),
	}
	res, info, err := run(o)
	if err != nil {
		fail(err)
	}
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(map[string]any{"run": info}); err != nil {
		fail(err)
	}
	if err := enc.Encode(res); err != nil {
		fail(err)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}
