package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"
)

// options is one benchmark invocation.
type options struct {
	Workload string
	Seed     int64
	Window   time.Duration
	Traced   bool
	Workdir  string
	Sizes    sizes
}

// sizes holds every generator size. fullSizes is what the benchmark
// measures; the smoke test runs the same code at toySizes.
type sizes struct {
	Rows       int     `json:"rows"`        // serve-* relation rows
	Categories int     `json:"categories"`  // category domain of the serve-* relation
	Regions    int     `json:"regions"`     // region domain
	ValueMax   int     `json:"value_max"`   // value is a Zipf rank in [0, ValueMax]
	ScoreMax   float64 `json:"score_max"`   // score is uniform in [0, ScoreMax)
	Zipf       float64 `json:"zipf"`        // exponent of every Zipf draw
	P          float64 `json:"p"`           // GRR randomization probability
	B          float64 `json:"b"`           // Laplace scale
	MergeFrac  float64 `json:"merge_frac"`  // share of category values the cleaning merges
	Clients    int     `json:"clients"`     // closed-loop clients (goroutines, connections)
	SetupReps  int     `json:"setup_reps"`  // program starts per run; setup_s is their median
	ReplayMax  int     `json:"replay_max"`  // requests replayed per layer in a traced run
	History    int     `json:"history"`     // batches folded before the ingest window
	BatchSize  int     `json:"batch_size"`  // reports per ingest batch
	Identities int     `json:"identities"`  // ingest client identities
	IngestCats int     `json:"ingest_cats"` // ingest category domain
	DupFrac    float64 `json:"dup_frac"`    // share of posts that re-send a sent batch
	CompactAt  int     `json:"compact_at"`  // acks between Compact calls
}

func fullSizes() sizes {
	return sizes{
		Rows: 500_000, Categories: 200, Regions: 20, ValueMax: 100, ScoreMax: 10, Zipf: 1.1,
		P: 0.1, B: 10, MergeFrac: 0.1, Clients: 2, SetupReps: 15, ReplayMax: 1500,
		History: 20_000, BatchSize: 10, Identities: 2000, IngestCats: 2000, DupFrac: 0.02, CompactAt: 100,
	}
}

func toySizes() sizes {
	s := fullSizes()
	s.Rows, s.Categories, s.Regions = 4000, 30, 5
	s.SetupReps, s.ReplayMax = 2, 100
	s.History, s.Identities, s.IngestCats, s.CompactAt = 200, 100, 100, 20
	return s
}

// mix is one workload's traffic. prepare builds the inputs (untimed) and
// starts the program SetupReps times; measure runs one closed-loop window;
// finish checks the answers and reports metrics. A traced run measures two
// windows, untraced then traced, so the tracing overhead shows.
type mix interface {
	prepare(env *runEnv) error
	measure(env *runEnv, window time.Duration, tr *tracer) (phase, error)
	finish(env *runEnv, phases []phase, out *metricSet) error
}

// phase is the outcome of one measured window.
type phase struct {
	Ops     int           // operations attempted
	Failed  int           // failed, refused or wrong
	Useful  float64       // throughput numerator: queries or unique reports
	Elapsed time.Duration // wall time of the window
}

func (p phase) perSecond() float64 { return p.Useful / p.Elapsed.Seconds() }

// runEnv is what a workload shares with the driver.
type runEnv struct {
	opts    options
	dir     string  // fixture directory, removed at exit
	trace   *tracer // setup spans and the traced window's spans
	failed  int     // wrong answers found by finish
	checked int     // checks finish made beyond the windows' operations
	notes   map[string]any
}

func (e *runEnv) note(key string, v any) { e.notes[key] = v }

func workloads() map[string]func() mix {
	return map[string]func() mix{
		"serve-resident": func() mix { return &serveWorkload{resident: true} },
		"serve-stats":    func() mix { return &serveWorkload{} },
		"ingest":         func() mix { return &ingestWorkload{} },
	}
}

func workloadNames() []string {
	var names []string
	for n := range workloads() {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// run executes one invocation and returns the result line plus the run
// record (seed, host, sizes, sample counts).
func run(o options) (*result, map[string]any, error) {
	mk, ok := workloads()[o.Workload]
	if !ok {
		return nil, nil, fmt.Errorf("unknown workload %q; want one of %v", o.Workload, workloadNames())
	}
	if err := os.MkdirAll(o.Workdir, 0o755); err != nil {
		return nil, nil, err
	}
	dir, err := os.MkdirTemp(o.Workdir, o.Workload+"-")
	if err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(dir)
	env := &runEnv{opts: o, dir: dir, trace: newTracer(o.Traced), notes: map[string]any{}}
	w := mk()
	if err := w.prepare(env); err != nil {
		return nil, nil, fmt.Errorf("%s: prepare: %w", o.Workload, err)
	}
	// Neither the set-up's garbage nor its dirty pages may be flushed inside
	// a window.
	runtime.GC()
	if err := syncTree(dir); err != nil {
		return nil, nil, err
	}
	var phases []phase
	if o.Traced {
		for _, tr := range []*tracer{newTracer(false), env.trace} {
			ph, err := w.measure(env, o.Window/2, tr)
			if err != nil {
				return nil, nil, fmt.Errorf("%s: measure: %w", o.Workload, err)
			}
			phases = append(phases, ph)
		}
	} else {
		ph, err := w.measure(env, o.Window, newTracer(false))
		if err != nil {
			return nil, nil, fmt.Errorf("%s: measure: %w", o.Workload, err)
		}
		phases = append(phases, ph)
	}
	out := newMetricSet()
	if err := w.finish(env, phases, out); err != nil {
		return nil, nil, fmt.Errorf("%s: finish: %w", o.Workload, err)
	}
	res := &result{Attempted: env.checked, Failed: env.failed}
	for _, ph := range phases {
		res.Attempted += ph.Ops
		res.Failed += ph.Failed
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	if o.Traced {
		out.add("trace.overhead_frac", 1-phases[1].perSecond()/phases[0].perSecond(), "ratio")
		out.add("trace.spans", float64(env.trace.count()), "count")
		path := filepath.Join(o.Workdir, "traces", fmt.Sprintf("%s-seed%d.json", o.Workload, o.Seed))
		if err := env.trace.writeFile(path); err != nil {
			return nil, nil, err
		}
		env.note("trace_file", path)
	}
	if res.Metrics, err = out.complete(o.Traced); err != nil {
		return nil, nil, err
	}
	return res, runInfo(o, env), nil
}

// runInfo is the run record printed before the result line.
func runInfo(o options, env *runEnv) map[string]any {
	info := map[string]any{
		"workload":   o.Workload,
		"seed":       o.Seed,
		"seconds":    o.Window.Seconds(),
		"traced":     o.Traced,
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"go_version": runtime.Version(),
		"cpu_model":  cpuModel(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
		"fsync":      ingestFsync.String(), // the ingest collector's WAL policy
		"sizes":      o.Sizes,
	}
	for k, v := range env.notes {
		info[k] = v
	}
	return info
}

// liveHeapBytes forces a collection and returns the live heap it marked.
func liveHeapBytes() float64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64())
}

// percentile returns the nearest-rank q-quantile of xs (NaN when empty).
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// recordCap sizes a window's per-operation records up front, at perSec
// operations a second, so the benchmark's own heap does not grow inside the
// window and shift the garbage collector's pacing under the program.
func recordCap(window time.Duration, perSec int) int {
	return int(window.Seconds() * float64(perSec))
}

// done is one completed operation: when it completed (since the window
// began), its latency, and the useful work it delivered.
type done struct {
	at     time.Duration
	latMS  float64
	useful float64
}

// windowSlices is how many equal time slices a window is cut into. Every
// end-to-end figure is a median over slices, so a burst of interference from
// outside the benchmark moves a slice, not the figure.
const windowSlices = 20

// summarize returns throughput (useful work per second), median latency and
// p99 latency of one window. Throughput and the median are medians over the
// window's slices; p99 is the median over up to windowSlices groups of
// consecutive slices, each holding at least 1000 operations, so that every
// p99 rests on ten or more samples beyond it.
func summarize(ds []done, window time.Duration) (perSec, p50, p99 float64) {
	width := window / windowSlices
	slices := make([][]done, windowSlices)
	for _, d := range ds {
		i := int(d.at / width)
		if i >= windowSlices {
			i = windowSlices - 1
		}
		slices[i] = append(slices[i], d)
	}
	var rates, medians []float64
	for _, s := range slices {
		useful := 0.0
		var lat []float64
		for _, d := range s {
			useful += d.useful
			lat = append(lat, d.latMS)
		}
		rates = append(rates, useful/width.Seconds())
		if len(lat) > 0 {
			medians = append(medians, median(lat))
		}
	}
	groups := len(ds) / 1000
	if groups > windowSlices {
		groups = windowSlices
	}
	if groups < 1 {
		groups = 1
	}
	var p99s []float64
	for g := 0; g < groups; g++ {
		var lat []float64
		for _, s := range slices[g*windowSlices/groups : (g+1)*windowSlices/groups] {
			for _, d := range s {
				lat = append(lat, d.latMS)
			}
		}
		p99s = append(p99s, percentile(lat, 0.99))
	}
	return median(rates), median(medians), median(p99s)
}

// syncTree fsyncs every regular file under dir.
func syncTree(dir string) error {
	return filepath.Walk(dir, func(path string, fi os.FileInfo, err error) error {
		if err != nil || !fi.Mode().IsRegular() {
			return err
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		return f.Sync()
	})
}
