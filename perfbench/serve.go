package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"privateclean/internal/cleaning"
	"privateclean/internal/colstore"
	"privateclean/internal/core"
	"privateclean/internal/dist"
	"privateclean/internal/estimator"
	"privateclean/internal/privacy"
	"privateclean/internal/provenance"
	"privateclean/internal/query"
	"privateclean/internal/relation"
	"privateclean/internal/server"
	"privateclean/internal/workload"
)

// serveWorkload is serve-resident (`pc serve -col` over a cleaned view with
// its provenance) or serve-stats (`pc serve -stats` over the statistics of
// the uncleaned view), queried by closed-loop clients over loopback HTTP.
type serveWorkload struct {
	resident bool
	sz       sizes
	classes  []int // indexes into serveClasses
	cats     []string
	regions  []string
	catZ     *dist.Zipf
	regZ     *dist.Zipf
	rngs     []*rand.Rand // one query stream per client, continued across windows
	reqs     atomic.Uint64

	// Inputs, and the references the answers are checked against. The
	// references are built only after the measured windows, so they do not
	// weigh on the program's heap while it is measured.
	metaPath, provPath, colPath, statsPath, refPath string
	analyst                                         *core.Analyst         // cleaned view, in memory
	refView                                         *colstore.View        // uncleaned private view
	stats                                           *estimator.Statistics // statistics of refView
	ref                                             *estimator.Estimator  // resident estimator

	// Program state of the last start.
	colView *colstore.View
	srv     *server.Server
	rel     *relation.Relation
	meta    *privacy.ViewMeta
	prov    *provenance.Store
	st      *estimator.Statistics

	setupS     []float64            // seconds per program start
	setupLayer map[string][]float64 // ms per start, by layer span name
	windows    []serveWindow
}

// serveWindow is what one measured window saw.
type serveWindow struct {
	window  time.Duration
	done    []done
	answers map[string]*answer
	log     []served // traced windows only
}

// serveRecordRate bounds the queries per second one client's records are
// sized for.
const serveRecordRate = 10000

// answer is the first response to one distinct query and how often it was
// asked; bad counts repeats whose response differed.
type answer struct {
	class int
	body  []byte
	n     int
	bad   int
}

type served struct {
	req   uint64
	class int
	sql   string
}

func (w *serveWorkload) prepare(env *runEnv) error {
	o := env.opts
	w.sz = o.Sizes
	w.classes = []int{0, 1, 2, 3, 4}
	if !w.resident {
		w.classes = append(w.classes, 5, 6)
	}
	w.regions = names(w.sz.Regions, regionName)
	var err error
	if w.regZ, err = dist.NewZipf(w.sz.Regions, w.sz.Zipf); err != nil {
		return err
	}
	crng := newRand(o.Seed, streamClients)
	for c := 0; c < w.sz.Clients; c++ {
		w.rngs = append(w.rngs, rand.New(rand.NewSource(crng.Int63())))
	}

	view, meta, mapping, err := w.inputs(o.Seed)
	if err != nil {
		return err
	}
	w.metaPath = filepath.Join(env.dir, "meta.json")
	if err := writeJSON(w.metaPath, meta); err != nil {
		return err
	}
	if w.resident {
		analyst, err := cleanedAnalyst(view, meta, mapping)
		if err != nil {
			return err
		}
		w.colPath, w.provPath = filepath.Join(env.dir, "view.pcol"), filepath.Join(env.dir, "prov.json")
		if _, err := colstore.WriteFile(w.colPath, analyst.Relation()); err != nil {
			return err
		}
		if err := writeJSON(w.provPath, analyst.Provenance()); err != nil {
			return err
		}
		env.note("merged_values", len(mapping))
		// Analysts query the cleaned domain: a merged-away value has no
		// rows left, and avg over it is undefined.
		for _, c := range names(w.sz.Categories, categoryName) {
			if _, merged := mapping[c]; !merged {
				w.cats = append(w.cats, c)
			}
		}
	} else {
		opts := estimator.CollectOpts{
			BinEdges: map[string][]float64{},
			Joints:   [][2]string{{"category", "region"}},
		}
		for name, nm := range meta.Numeric {
			opts.BinEdges[name] = nm.BinEdges()
		}
		st, err := estimator.CollectStatisticsWith(relation.NewSliceIterator(view, 8192), opts)
		if err != nil {
			return err
		}
		w.statsPath, w.refPath = filepath.Join(env.dir, "stats.json"), filepath.Join(env.dir, "reference.pcol")
		if err := writeJSON(w.statsPath, st); err != nil {
			return err
		}
		if _, err := colstore.WriteFile(w.refPath, view); err != nil {
			return err
		}
	}
	if w.cats == nil {
		w.cats = names(w.sz.Categories, categoryName)
	}
	if w.catZ, err = dist.NewZipf(len(w.cats), w.sz.Zipf); err != nil {
		return err
	}

	w.setupLayer = map[string][]float64{}
	for i := 0; i < w.sz.SetupReps; i++ {
		w.release()
		if err := w.start(env.trace); err != nil {
			return err
		}
	}
	return nil
}

// inputs derives the private view, its metadata and the cleaning's
// dictionary merge from the seed.
func (w *serveWorkload) inputs(seed int64) (*relation.Relation, *privacy.ViewMeta, map[string]string, error) {
	rel, err := genRelation(newRand(seed, streamRelation), w.sz)
	if err != nil {
		return nil, nil, nil, err
	}
	params := privacy.Uniform(rel.Schema(), w.sz.P, w.sz.B)
	view, meta, err := privacy.PrivatizeParallel(subSeed(seed, streamPrivatize), rel, params, 0)
	if err != nil {
		return nil, nil, nil, err
	}
	mapping, err := workload.RandomValueMap(newRand(seed, streamCleaning), meta.Discrete["category"].Domain, w.sz.MergeFrac, 0)
	return view, meta, mapping, err
}

// cleanedAnalyst is the analyst's session: the view with the category
// dictionary merge applied, provenance recorded.
func cleanedAnalyst(view *relation.Relation, meta *privacy.ViewMeta, mapping map[string]string) (*core.Analyst, error) {
	a := core.NewAnalyst(&core.View{Rel: view, Meta: meta})
	return a, a.Clean(cleaning.DictionaryMerge{Attr: "category", Mapping: mapping})
}

// references builds what check compares against: for serve-resident the
// analyst session rebuilt from the seed, for serve-stats the uncleaned view
// and the statistics file.
func (w *serveWorkload) references(seed int64) error {
	if w.resident {
		view, meta, mapping, err := w.inputs(seed)
		if err != nil {
			return err
		}
		w.analyst, err = cleanedAnalyst(view, meta, mapping)
		return err
	}
	meta, err := readMeta(w.metaPath)
	if err != nil {
		return err
	}
	w.ref = &estimator.Estimator{Meta: meta, Confidence: 0.95}
	if w.refView, err = colstore.Open(w.refPath); err != nil {
		return err
	}
	data, err := os.ReadFile(w.statsPath)
	if err != nil {
		return err
	}
	w.stats = &estimator.Statistics{}
	return json.Unmarshal(data, w.stats)
}

// start is program start as `pc serve` does it: open the view (or decode
// the statistics), load metadata and provenance, build the server, then
// one warm-up query per class through its handler.
func (w *serveWorkload) start(tr *tracer) error {
	root := tr.newID()
	begin := time.Now()
	step := func(name string, f func() error) error {
		var err error
		d := tr.timed(root, 0, name, func() { err = f() })
		w.setupLayer[name] = append(w.setupLayer[name], ms(d))
		return err
	}
	var err error
	if w.resident {
		err = step("colstore.open", func() error {
			v, err := colstore.Open(w.colPath)
			if err == nil {
				w.colView, w.rel = v, v.Relation()
			}
			return err
		})
	} else {
		err = step("stats.decode", func() error {
			data, err := os.ReadFile(w.statsPath)
			if err != nil {
				return err
			}
			w.st = &estimator.Statistics{}
			return json.Unmarshal(data, w.st)
		})
	}
	if err != nil {
		return err
	}
	if err := step("meta.decode", func() (err error) { w.meta, err = readMeta(w.metaPath); return err }); err != nil {
		return err
	}
	if w.resident {
		if err := step("provenance.load", func() error {
			data, err := os.ReadFile(w.provPath)
			if err != nil {
				return err
			}
			w.prov = provenance.NewStore()
			return json.Unmarshal(data, w.prov)
		}); err != nil {
			return err
		}
	}
	if err := step("server.new", func() (err error) {
		w.srv, err = server.New(server.Config{Rel: w.rel, Stats: w.st, Meta: w.meta, Prov: w.prov, Tel: programTel()})
		return err
	}); err != nil {
		return err
	}
	if err := step("server.warmup", func() error {
		h := w.srv.Handler()
		rng := rand.New(rand.NewSource(0))
		for _, c := range w.classes {
			body, _ := json.Marshal(map[string]string{"query": w.query(c, rng)})
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/query", bytes.NewReader(body)))
			if rec.Code != http.StatusOK {
				return fmt.Errorf("warm-up %s: status %d: %s", serveClasses[c], rec.Code, rec.Body.String())
			}
		}
		return nil
	}); err != nil {
		return err
	}
	end := time.Now()
	tr.record(root, 0, 0, "setup", begin, end)
	w.setupS = append(w.setupS, end.Sub(begin).Seconds())
	return nil
}

// release drops the program state of the last start.
func (w *serveWorkload) release() {
	if w.colView != nil {
		w.colView.Close()
	}
	w.colView, w.srv, w.rel, w.meta, w.prov, w.st = nil, nil, nil, nil, nil, nil
}

// query draws one query of class c. Predicate values come from the domain
// by Zipf rank, so hot and tail values both recur.
func (w *serveWorkload) query(c int, rng *rand.Rand) string {
	cat := func() string { return w.cats[w.catZ.Sample(rng)] }
	numeric := []string{"value", "score"}[rng.Intn(2)]
	switch serveClasses[c] {
	case "count_eq":
		return fmt.Sprintf("SELECT count(1) FROM R WHERE category = '%s'", cat())
	case "sum_in":
		k, n := w.catZ.Sample(rng), len(w.cats)
		return fmt.Sprintf("SELECT sum(value) FROM R WHERE category IN (%s)",
			quoteList([]string{w.cats[k], w.cats[(k+1)%n], w.cats[(k+2)%n]}))
	case "avg_eq":
		return fmt.Sprintf("SELECT avg(score) FROM R WHERE category = '%s'", cat())
	case "group_sum":
		return fmt.Sprintf("SELECT sum(%s) FROM R GROUP BY region", numeric)
	case "conj_count":
		return fmt.Sprintf("SELECT count(1) FROM R WHERE category = '%s' AND region = '%s'",
			cat(), w.regions[w.regZ.Sample(rng)])
	case "median":
		return fmt.Sprintf("SELECT median(value) FROM R WHERE category = '%s'", cat())
	default: // group_bin
		return fmt.Sprintf("SELECT count(1) FROM R GROUP BY bin(%s)", numeric)
	}
}

func (w *serveWorkload) measure(env *runEnv, window time.Duration, tr *tracer) (phase, error) {
	lb, err := serveLoopback(traceHandler(w.srv.Handler(), tr, "server.handler"))
	if err != nil {
		return phase{}, err
	}
	parts := make([]serveWindow, len(w.rngs))
	fails := make([]int, len(w.rngs))
	errs := make([]error, len(w.rngs))
	start := time.Now()
	deadline := start.Add(window)
	var wg sync.WaitGroup
	for c := range w.rngs {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			fails[c], errs[c] = w.client(lb.URL, w.rngs[c], start, deadline, tr, &parts[c])
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	if err := lb.stop(); err != nil {
		return phase{}, err
	}
	merged := serveWindow{window: window, answers: map[string]*answer{}}
	ph := phase{Elapsed: elapsed}
	for c, p := range parts {
		if errs[c] != nil {
			return phase{}, errs[c]
		}
		ph.Ops += len(p.done)
		ph.Failed += fails[c]
		merged.done = append(merged.done, p.done...)
		merged.log = append(merged.log, p.log...)
		mergeAnswers(merged.answers, p.answers)
	}
	ph.Useful = float64(ph.Ops - ph.Failed)
	w.windows = append(w.windows, merged)
	return ph, nil
}

// client runs one closed loop until deadline and returns its failures.
func (w *serveWorkload) client(url string, rng *rand.Rand, begin, deadline time.Time, tr *tracer, out *serveWindow) (int, error) {
	cl := newClient()
	defer cl.close()
	out.answers = make(map[string]*answer, 1<<13)
	out.done = make([]done, 0, recordCap(deadline.Sub(begin), serveRecordRate))
	if tr.on {
		out.log = make([]served, 0, cap(out.done))
	}
	failed := 0
	for time.Now().Before(deadline) {
		c := w.classes[rng.Intn(len(w.classes))]
		sql := w.query(c, rng)
		body, err := json.Marshal(map[string]string{"query": sql})
		if err != nil {
			return 0, err
		}
		var req uint64
		if tr.on {
			req = w.reqs.Add(1)
		}
		id := tr.newID()
		start := time.Now()
		status, resp, err := cl.do(http.MethodPost, url+"/v1/query", body, req, id)
		end := time.Now()
		tr.record(id, 0, req, "client.query", start, end)
		ok := err == nil && status == http.StatusOK
		d := done{at: end.Sub(begin), latMS: ms(end.Sub(start))}
		if ok {
			d.useful = 1
		}
		out.done = append(out.done, d)
		if !ok {
			if failed == 0 {
				fmt.Fprintf(os.Stderr, "perfbench: %s: status %d: %v %q\n", sql, status, err, resp)
			}
			failed++
			continue
		}
		if tr.on {
			out.log = append(out.log, served{req: req, class: c, sql: sql})
		}
		if a, ok := out.answers[sql]; ok {
			a.n++
			if !bytes.Equal(a.body, resp) {
				a.bad++
			}
		} else {
			out.answers[sql] = &answer{class: c, body: resp, n: 1}
		}
	}
	return failed, nil
}

func mergeAnswers(dst, src map[string]*answer) {
	for sql, a := range src {
		d, ok := dst[sql]
		if !ok {
			dst[sql] = a
			continue
		}
		d.n += a.n
		d.bad += a.bad
		if !bytes.Equal(d.body, a.body) {
			d.bad += a.n
		}
	}
}

func (w *serveWorkload) finish(env *runEnv, phases []phase, out *metricSet) error {
	all := map[string]*answer{}
	for _, win := range w.windows {
		mergeAnswers(all, win.answers)
	}
	// The layer replay runs first, while the heap is as the window left it;
	// building the references and checking would put their garbage
	// collection under the replayed calls.
	if env.opts.Traced {
		if err := w.layers(env, out); err != nil {
			return err
		}
	}
	if err := w.references(env.opts.Seed); err != nil {
		return err
	}
	env.failed += w.check(all)
	if w.refView != nil {
		w.refView.Close()
	}
	w.analyst, w.refView, w.stats = nil, nil, nil
	env.note("distinct_queries", len(all))
	first := w.windows[0]
	env.note("samples", len(first.done))
	perSec, p50, p99 := summarize(first.done, first.window)
	out.add("setup_s", median(w.setupS), "s")
	out.add("throughput_per_s", perSec, "1/s")
	out.add("latency_p50_ms", p50, "ms")
	out.add("latency_p99_ms", p99, "ms")

	sizes := make([][]float64, len(serveClasses))
	for _, a := range all {
		sizes[a.class] = append(sizes[a.class], float64(len(a.body)))
	}
	for k, c := range serveClasses {
		if len(sizes[k]) > 0 {
			out.add("server.response_bytes."+c, median(sizes[k]), "bytes")
		}
	}
	for span, metricName := range map[string]string{
		"colstore.open": "colstore.open_ms", "stats.decode": "stats.decode_ms",
		"provenance.load": "provenance.load_ms", "server.new": "server.new_ms", "server.warmup": "server.warmup_ms",
	} {
		if d := w.setupLayer[span]; len(d) > 0 {
			out.add(metricName, median(d), "ms")
		}
	}
	if env.opts.Traced && w.resident {
		rel, err := genRelation(newRand(env.opts.Seed, streamRelation), w.sz)
		if err != nil {
			return err
		}
		params := privacy.Uniform(rel.Schema(), w.sz.P, w.sz.B)
		if err := providerLayers(env, rel, params, subSeed(env.opts.Seed, streamPrivatize), out); err != nil {
			return err
		}
	}

	// The program's heap is what its state retains: the live heap with the
	// server reachable minus the live heap once it is released.
	held := liveHeapBytes()
	w.release()
	out.add("heap_mb", (held-liveHeapBytes())/(1<<20), "MB")
	return nil
}

// check compares every distinct answer with an independent path and
// returns the number of wrong responses. serve-resident must match
// core.Analyst over the in-memory cleaned view bit for bit; serve-stats must
// agree with the resident estimator over the uncleaned view within 1e-9
// relative, and its binned answers must equal the direct statistics call.
func (w *serveWorkload) check(all map[string]*answer) int {
	sqls := make([]string, 0, len(all))
	for sql := range all {
		sqls = append(sqls, sql)
	}
	wrong := make([]int, len(w.rngs))
	var wg sync.WaitGroup
	for g := range wrong {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < len(sqls); i += len(wrong) {
				a := all[sqls[i]]
				wrong[g] += a.bad
				if ok, err := w.agrees(sqls[i], a.body); !ok {
					if err != nil {
						fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", sqls[i], err)
					}
					wrong[g] += a.n - a.bad
				}
			}
		}(g)
	}
	wg.Wait()
	total := 0
	for _, n := range wrong {
		total += n
	}
	return total
}

type estimateJSON struct {
	Value float64 `json:"value"`
	CI    float64 `json:"ci"`
	Text  string  `json:"text"`
}

type responseJSON struct {
	Estimate *estimateJSON `json:"estimate"`
	Groups   []struct {
		Key      string       `json:"key"`
		Estimate estimateJSON `json:"estimate"`
	} `json:"groups"`
}

// keyed is one expected answer: the whole estimate for a scalar query
// (key ""), or one group.
type keyed struct {
	key string
	est estimator.Estimate
}

func (w *serveWorkload) agrees(sql string, body []byte) (bool, error) {
	var resp responseJSON
	if err := json.Unmarshal(body, &resp); err != nil {
		return false, err
	}
	var want []keyed
	var exact bool
	var err error
	if w.resident {
		want, err = w.analystAnswer(sql)
		exact = true
	} else {
		want, exact, err = w.referenceAnswer(sql)
	}
	if err != nil {
		return false, err
	}
	var got []keyed
	if resp.Estimate != nil {
		got = append(got, keyed{est: estimator.Estimate{Value: resp.Estimate.Value, CI: resp.Estimate.CI}})
	}
	for _, g := range resp.Groups {
		got = append(got, keyed{key: g.Key, est: estimator.Estimate{Value: g.Estimate.Value, CI: g.Estimate.CI}})
	}
	if len(got) != len(want) {
		return false, fmt.Errorf("%d answers, want %d", len(got), len(want))
	}
	wantBy := map[string]estimator.Estimate{}
	for _, k := range want {
		wantBy[k.key] = estimator.Estimate{Value: jsonSafe(k.est.Value), CI: jsonSafe(k.est.CI)}
	}
	for _, g := range got {
		e, ok := wantBy[g.key]
		if !ok {
			return false, fmt.Errorf("unexpected group %q", g.key)
		}
		if exact {
			if math.Float64bits(e.Value) != math.Float64bits(g.est.Value) || math.Float64bits(e.CI) != math.Float64bits(g.est.CI) {
				return false, fmt.Errorf("group %q: got %v, want %v", g.key, g.est, e)
			}
		} else if !relClose(e.Value, g.est.Value, 1e-9) || !relClose(e.CI, g.est.CI, 1e-9) {
			return false, fmt.Errorf("group %q: got %v, want %v within 1e-9", g.key, g.est, e)
		}
	}
	return true, nil
}

// jsonSafe mirrors the server's wire encoding of non-finite values.
func jsonSafe(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return -1
	}
	return v
}

// analystAnswer runs sql through core.Analyst over the cleaned view it
// built in memory.
func (w *serveWorkload) analystAnswer(sql string) ([]keyed, error) {
	res, err := w.analyst.Query(sql)
	if err != nil {
		return nil, err
	}
	if !res.IsGroupBy() {
		return []keyed{{est: res.PrivateClean}}, nil
	}
	var out []keyed
	for k, g := range res.Groups {
		out = append(out, keyed{key: k, est: g.PrivateClean})
	}
	return out, nil
}

// referenceAnswer answers a serve-stats query with the resident estimator
// over the uncleaned view, or, for the binned classes, with the direct
// statistics call; exact reports which.
func (w *serveWorkload) referenceAnswer(sql string) ([]keyed, bool, error) {
	q, err := query.Parse(sql)
	if err != nil {
		return nil, false, err
	}
	est := w.ref
	scalar := func(e estimator.Estimate, err error) ([]keyed, error) { return []keyed{{est: e}}, err }
	var out []keyed
	switch {
	case q.GroupBin:
		bins, err := est.GroupBinCountsStats(w.stats, q.GroupBy)
		for _, b := range bins {
			out = append(out, keyed{key: b.Label, est: b.Est})
		}
		return out, true, err
	case q.GroupBy != "":
		groups, err := est.GroupSums(w.refView.Relation(), q.GroupBy, q.AggAttr)
		for k, e := range groups {
			out = append(out, keyed{key: k, est: e})
		}
		return out, false, err
	case len(q.AndWhere) > 0:
		preds, err := query.CompileConjunction(q.Conds(), nil)
		if err != nil {
			return nil, false, err
		}
		out, err = scalar(est.CountConj(w.refView.Relation(), preds...))
		return out, false, err
	}
	pred, err := query.CompilePredicate(q.Where, nil)
	if err != nil {
		return nil, false, err
	}
	switch q.Agg {
	case query.AggCount:
		out, err = scalar(est.Count(w.refView.Relation(), pred))
	case query.AggSum:
		out, err = scalar(est.Sum(w.refView.Relation(), q.AggAttr, pred))
	case query.AggAvg:
		out, err = scalar(est.Avg(w.refView.Relation(), q.AggAttr, pred))
	case query.AggMedian:
		out, err = scalar(est.MedianStats(w.stats, q.AggAttr, pred))
		return out, true, err
	default:
		return nil, false, fmt.Errorf("no reference for %s", q.Agg)
	}
	return out, false, err
}

// layers replays the traced window's requests layer by layer: query.Parse,
// then the estimator entry point of the class, with the server's metadata
// and provenance and a warm channel cache. Handler, transport and "other"
// times come from the spans of the traced window itself.
func (w *serveWorkload) layers(env *runEnv, out *metricSet) error {
	tr := env.trace
	win := w.windows[len(w.windows)-1]
	per := w.sz.ReplayMax / len(w.classes)
	taken := make([]int, len(serveClasses))
	var replay []served
	for _, s := range win.log {
		if taken[s.class] < per {
			taken[s.class]++
			replay = append(replay, s)
		}
	}
	est := &estimator.Estimator{Meta: w.meta, Prov: w.prov, Confidence: 0.95, Cache: estimator.NewChannelCache()}
	// An untimed pass binds each call and warms the channel cache, as the
	// served window warmed the server's; the timed pass follows.
	calls := make([]func() error, len(replay))
	for i, s := range replay {
		q, err := query.Parse(s.sql)
		if err != nil {
			return err
		}
		if calls[i], err = w.estimatorCall(est, q); err != nil {
			return err
		}
		if err := calls[i](); err != nil {
			return fmt.Errorf("%s: %w", s.sql, err)
		}
	}
	for i, s := range replay {
		var err error
		tr.timed(0, s.req, "query.parse", func() { _, err = query.Parse(s.sql) })
		if err == nil {
			tr.timed(0, s.req, "estimator."+serveClasses[s.class], func() { err = calls[i]() })
		}
		if err != nil {
			return fmt.Errorf("%s: %w", s.sql, err)
		}
	}
	for _, c := range w.classes {
		out.add("estimator."+serveClasses[c]+"_us.p50", median(tr.durations("estimator."+serveClasses[c])), "us")
	}
	out.add("query.parse_us.p50", median(tr.durations("query.parse")), "us")
	handler := tr.durations("server.handler")
	out.add("server.handler_us.p50", median(handler), "us")
	out.add("server.handler_us.p99", percentile(handler, 0.99), "us")

	handlerBy := tr.perReq("server.handler")
	parseBy := tr.perReq("query.parse")
	estBy := map[uint64]time.Duration{}
	for _, c := range w.classes {
		for req, d := range tr.perReq("estimator." + serveClasses[c]) {
			estBy[req] += d
		}
	}
	var other, transport []float64
	for req, p := range parseBy {
		if h, ok := handlerBy[req]; ok {
			other = append(other, us(h-p-estBy[req]))
		}
	}
	for req, rt := range tr.perReq("client.query") {
		if h, ok := handlerBy[req]; ok {
			transport = append(transport, us(rt-h))
		}
	}
	out.add("server.other_us.p50", median(other), "us")
	out.add("http.transport_us.p50", median(transport), "us")
	env.note("replayed", len(replay))
	return nil
}

// estimatorCall binds the estimator entry point that serves q, the same
// one the server dispatches to for this class.
func (w *serveWorkload) estimatorCall(est *estimator.Estimator, q *query.Query) (func() error, error) {
	rel, st := w.rel, w.st
	if q.GroupBy != "" {
		if q.GroupBin {
			return func() error { _, err := est.GroupBinCountsStats(st, q.GroupBy); return err }, nil
		}
		if st != nil {
			return func() error { _, err := est.GroupSumsStats(st, q.GroupBy, q.AggAttr); return err }, nil
		}
		return func() error { _, err := est.GroupSums(rel, q.GroupBy, q.AggAttr); return err }, nil
	}
	if len(q.AndWhere) > 0 {
		preds, err := query.CompileConjunction(q.Conds(), nil)
		if err != nil {
			return nil, err
		}
		if st != nil {
			return func() error { _, err := est.CountConjStats(st, preds...); return err }, nil
		}
		return func() error { _, err := est.CountConj(rel, preds...); return err }, nil
	}
	pred, err := query.CompilePredicate(q.Where, nil)
	if err != nil {
		return nil, err
	}
	ret := func(f func() (estimator.Estimate, error)) (func() error, error) {
		return func() error { _, err := f(); return err }, nil
	}
	switch {
	case q.Agg == query.AggCount && st != nil:
		return ret(func() (estimator.Estimate, error) { return est.CountStats(st, pred) })
	case q.Agg == query.AggCount:
		return ret(func() (estimator.Estimate, error) { return est.Count(rel, pred) })
	case q.Agg == query.AggSum && st != nil:
		return ret(func() (estimator.Estimate, error) { return est.SumStats(st, q.AggAttr, pred) })
	case q.Agg == query.AggSum:
		return ret(func() (estimator.Estimate, error) { return est.Sum(rel, q.AggAttr, pred) })
	case q.Agg == query.AggAvg && st != nil:
		return ret(func() (estimator.Estimate, error) { return est.AvgStats(st, q.AggAttr, pred) })
	case q.Agg == query.AggAvg:
		return ret(func() (estimator.Estimate, error) { return est.Avg(rel, q.AggAttr, pred) })
	case q.Agg == query.AggMedian && st != nil:
		return ret(func() (estimator.Estimate, error) { return est.MedianStats(st, q.AggAttr, pred) })
	}
	return nil, fmt.Errorf("no estimator entry point for %q", strings.TrimSpace(q.String()))
}
