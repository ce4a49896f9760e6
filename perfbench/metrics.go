package main

import (
	"fmt"
	"math"
)

// metricDef names one reported metric and its unit.
type metricDef struct {
	Name, Unit string
}

// endToEnd is what a user of the system sees; every workload reports all
// of them in an untraced run (README.md gives each workload's reading).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"throughput_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p99_ms", "ms"},
	{"heap_mb", "MB"},
}

// serveClasses are the query classes of the serve-* mixes, in mix order;
// serve-resident runs the first five.
var serveClasses = []string{"count_eq", "sum_in", "avg_eq", "group_sum", "conj_count", "median", "group_bin"}

// perLayer is what a traced run reports. A workload that does not pass
// through a layer reports 0 for it.
var perLayer = func() []metricDef {
	var defs []metricDef
	for _, c := range serveClasses {
		defs = append(defs, metricDef{"estimator." + c + "_us.p50", "us"})
	}
	defs = append(defs,
		metricDef{"query.parse_us.p50", "us"},
		metricDef{"server.handler_us.p50", "us"},
		metricDef{"server.handler_us.p99", "us"},
		metricDef{"server.other_us.p50", "us"},
		metricDef{"http.transport_us.p50", "us"},
	)
	for _, c := range serveClasses {
		defs = append(defs, metricDef{"server.response_bytes." + c, "bytes"})
	}
	defs = append(defs,
		metricDef{"colstore.open_ms", "ms"},
		metricDef{"stats.decode_ms", "ms"},
		metricDef{"provenance.load_ms", "ms"},
		metricDef{"server.new_ms", "ms"},
		metricDef{"server.warmup_ms", "ms"},

		metricDef{"privacy.randomize_us_per_report", "us"},
		metricDef{"collect.handler_us.p50", "us"},
		metricDef{"collect.handler_us.p99", "us"},
		metricDef{"collect.wal_append_us.p50", "us"},
		metricDef{"collect.compact_ms.p50", "ms"},
		metricDef{"collect.compact_ms.p99", "ms"},
		metricDef{"collect.compact_growth", "ratio"},
		metricDef{"collect.checkpoint_bytes", "bytes"},
		metricDef{"collect.wal_bytes", "bytes"},
		metricDef{"collect.recovery_ms", "ms"},
		metricDef{"collect.unique_over_posted", "ratio"},
		metricDef{"collect.shed", "count"},
		metricDef{"ingest.freshness_p50_ms", "ms"},
		metricDef{"ingest.freshness_p99_ms", "ms"},
		metricDef{"ingest.store_bytes_per_report", "bytes"},

		metricDef{"csvio.read_ms", "ms"},
		metricDef{"csvio.write_ms", "ms"},
		metricDef{"privacy.privatize_ms", "ms"},
		metricDef{"core.chunk_ms.p50", "ms"},
		metricDef{"core.chunk_ms.p99", "ms"},
		metricDef{"core.unattributed_ms", "ms"},

		metricDef{"trace.overhead_frac", "ratio"},
		metricDef{"trace.spans", "count"},
	)
	return defs
}()

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// metricSet collects a run's metrics and refuses a name reported twice.
type metricSet struct {
	m   map[string]metric
	err error
}

func newMetricSet() *metricSet { return &metricSet{m: map[string]metric{}} }

func (s *metricSet) add(name string, v float64, unit string) {
	if _, dup := s.m[name]; dup && s.err == nil {
		s.err = fmt.Errorf("metric %q reported twice", name)
	}
	s.m[name] = metric{Value: v, Unit: unit}
}

// complete checks the set against the catalogue of the run's mode: every
// catalogued metric must be present (per-layer metrics of layers the
// workload skips default to 0), units must match, values must be finite,
// and nothing outside the catalogue may appear.
func (s *metricSet) complete(traced bool) (map[string]metric, error) {
	if s.err != nil {
		return nil, s.err
	}
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		m, ok := s.m[d.Name]
		switch {
		case !ok && traced:
			m = metric{Value: 0, Unit: d.Unit}
		case !ok:
			return nil, fmt.Errorf("metric %q not reported", d.Name)
		case m.Unit != d.Unit:
			return nil, fmt.Errorf("metric %q in %q, want %q", d.Name, m.Unit, d.Unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			return nil, fmt.Errorf("metric %q not measured (%v)", d.Name, m.Value)
		}
		out[d.Name] = m
	}
	for name := range s.m {
		if !catalogued(name) {
			return nil, fmt.Errorf("metric %q is not in the catalogue", name)
		}
	}
	return out, nil
}

// catalogued reports whether name is a metric of either mode; a run may
// compute the other mode's metrics on the way without printing them.
func catalogued(name string) bool {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if d.Name == name {
				return true
			}
		}
	}
	return false
}
