package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"
)

// benchmarkSpec is the part of ../BENCHMARK.json the smoke test checks.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestCatalogueMatchesSpec keeps the metrics the code reports and the ones
// BENCHMARK.json declares the same, names and units alike.
func TestCatalogueMatchesSpec(t *testing.T) {
	spec := readSpec(t)
	for _, c := range []struct {
		mode      string
		spec, got []metricDef
	}{{"end_to_end", spec.EndToEnd, endToEnd}, {"per_layer", spec.PerLayer, perLayer}} {
		if len(c.spec) != len(c.got) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the code reports %d", c.mode, len(c.spec), len(c.got))
			continue
		}
		for i := range c.spec {
			if c.spec[i] != c.got[i] {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, the code %+v", c.mode, i, c.spec[i], c.got[i])
			}
		}
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadNames(), ",") {
		t.Errorf("BENCHMARK.json workloads %v, the code runs %v", names, workloadNames())
	}
}

// layersOf names, per workload, the per-layer metrics a traced run must
// measure as nonzero: the layers the workload passes through.
var layersOf = map[string][]string{
	"serve-resident": {"estimator.count_eq_us.p50", "estimator.sum_in_us.p50", "estimator.avg_eq_us.p50",
		"estimator.group_sum_us.p50", "estimator.conj_count_us.p50", "query.parse_us.p50",
		"server.handler_us.p50", "server.handler_us.p99", "http.transport_us.p50",
		"server.response_bytes.count_eq", "server.response_bytes.group_sum",
		"colstore.open_ms", "provenance.load_ms", "server.new_ms", "server.warmup_ms",
		"csvio.read_ms", "csvio.write_ms", "privacy.privatize_ms", "core.chunk_ms.p50", "core.chunk_ms.p99", "trace.spans"},
	"serve-stats": {"estimator.count_eq_us.p50", "estimator.median_us.p50", "estimator.group_bin_us.p50",
		"query.parse_us.p50", "server.handler_us.p50", "server.response_bytes.median",
		"server.response_bytes.group_bin", "stats.decode_ms", "server.new_ms", "server.warmup_ms", "trace.spans"},
	"ingest": {"privacy.randomize_us_per_report", "collect.handler_us.p50", "collect.handler_us.p99",
		"collect.wal_append_us.p50", "collect.compact_ms.p50", "collect.compact_ms.p99", "collect.compact_growth",
		"collect.checkpoint_bytes", "collect.recovery_ms", "collect.unique_over_posted",
		"ingest.freshness_p50_ms", "ingest.freshness_p99_ms", "ingest.store_bytes_per_report", "trace.spans"},
}

// TestSmoke runs every workload at toy size, untraced and traced, and
// checks that each metric BENCHMARK.json names is emitted with its unit
// and that nothing failed.
func TestSmoke(t *testing.T) {
	spec := readSpec(t)
	for _, name := range workloadNames() {
		for _, traced := range []bool{false, true} {
			name, traced := name, traced
			t.Run(name+map[bool]string{false: "/untraced", true: "/traced"}[traced], func(t *testing.T) {
				res, info, err := run(options{
					Workload: name, Seed: 7, Window: 400 * time.Millisecond, Traced: traced,
					Workdir: t.TempDir(), Sizes: toySizes(),
				})
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("correct=%v failed=%d attempted=%d (failed_frac must be 0)", res.Correct, res.Failed, res.Attempted)
				}
				want := spec.EndToEnd
				if traced {
					want = spec.PerLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics, want %d", len(res.Metrics), len(want))
				}
				for _, d := range want {
					m, ok := res.Metrics[d.Name]
					if !ok || m.Unit != d.Unit {
						t.Errorf("metric %s: got %+v, want unit %q", d.Name, m, d.Unit)
					}
					if !traced && !(m.Value > 0) {
						t.Errorf("end-to-end metric %s = %v, want > 0", d.Name, m.Value)
					}
				}
				if traced {
					for _, n := range layersOf[name] {
						if res.Metrics[n].Value == 0 {
							t.Errorf("layer metric %s not measured", n)
						}
					}
				}
				for _, k := range []string{"seed", "gomaxprocs", "nproc", "go_version", "cpu_model", "fsync", "sizes"} {
					if _, ok := info[k]; !ok {
						t.Errorf("run record lacks %q", k)
					}
				}
			})
		}
	}
}

func TestMetricSetRejectsDuplicates(t *testing.T) {
	s := newMetricSet()
	for _, d := range endToEnd {
		s.add(d.Name, 1, d.Unit)
	}
	s.add("setup_s", 2, "s")
	if _, err := s.complete(false); err == nil {
		t.Fatal("a metric reported twice was accepted")
	}
}
