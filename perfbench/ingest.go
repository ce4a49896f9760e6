package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"privateclean/internal/collect"
	"privateclean/internal/dist"
	"privateclean/internal/estimator"
	"privateclean/internal/privacy"
	"privateclean/internal/relation"
	"privateclean/internal/telemetry"
)

// ingestWorkload is `pc report → pc collect -fsync interval`: closed-loop
// clients randomize a batch locally, POST it, and wait for the ack, while a
// driver goroutine compacts after every CompactAt acks. The collector starts
// from a directory that already holds History folded batches.
//
// Under the default fsync always, every ack waits on an fsync, and fsync
// latency on a shared virtual disk swings by an order of magnitude between
// minutes; ack p50 and throughput then spread by 31% and 21% over ten seeds.
// The interval policy keeps the WAL append, the fold and the checkpoint
// (which is always fsynced) on the path while acks stop waiting on the disk.
const ingestFsync = collect.SyncInterval

type ingestWorkload struct {
	sz          sizes
	meta        *privacy.ViewMeta
	fingerprint string
	metaPath    string
	colDir      string
	recs        []privacy.Record // one raw record per client identity
	codes       codes
	uniq        reportLog // every report the collector must count once

	rngs  []*rand.Rand // per-client streams, continued across windows
	seeds []int64      // per-client randomization seeds
	next  []int        // per-client index of the next report's RNG stream
	sent  [][][]byte   // per-client ring of recently acked bodies, for re-sends
	reqs  atomic.Uint64

	svc        *collect.Service
	setupS     []float64
	recoveryMS []float64
	windows    []ingestWindow
}

// reportLog holds reports column-wise as domain codes, so keeping every
// report adds no pointers for the collector's garbage collection to scan.
type reportLog struct {
	category, region []uint16
	value            []float64
}

// codes maps a discrete attribute's released domain to its indexes.
type codes map[string]map[string]uint16

func codesFor(meta *privacy.ViewMeta) codes {
	out := codes{}
	for name, dm := range meta.Discrete {
		out[name] = map[string]uint16{}
		for i, v := range dm.Domain {
			out[name][v] = uint16(i)
		}
	}
	return out
}

func newReportLog(n int) reportLog {
	return reportLog{category: make([]uint16, 0, n), region: make([]uint16, 0, n), value: make([]float64, 0, n)}
}

func (l *reportLog) add(c codes, reps []privacy.Report) {
	for _, r := range reps {
		l.category = append(l.category, c["category"][r.Discrete["category"]])
		l.region = append(l.region, c["region"][r.Discrete["region"]])
		l.value = append(l.value, r.Numeric["value"])
	}
}

func (l *reportLog) merge(o reportLog) {
	l.category = append(l.category, o.category...)
	l.region = append(l.region, o.region...)
	l.value = append(l.value, o.value...)
}

type ingestWindow struct {
	window     time.Duration
	done       []done
	posts      int
	unique     int // first-time batches acked
	reports    int // reports in those batches
	shed       int
	freshMS    []float64
	compactMS  []float64
	perBatchMS []float64 // compact cost per folded batch, in call order
	replay     [][]byte  // unique bodies kept for the WAL append replay
	diskBytes  [2]int64  // checkpoint and WAL bytes when the window ended
}

func (w *ingestWorkload) prepare(env *runEnv) error {
	o := env.opts
	w.sz = o.Sizes
	rng := newRand(o.Seed, streamRelation)
	cats, regions := names(w.sz.IngestCats, categoryName), names(w.sz.Regions, regionName)
	valZ, err := dist.NewZipf(w.sz.ValueMax+1, w.sz.Zipf)
	if err != nil {
		return err
	}
	perm := rng.Perm(w.sz.Identities)
	n := w.sz.Identities
	category, region, value := make([]string, n), make([]string, n), make([]float64, n)
	for k := 0; k < n; k++ {
		category[k] = cats[perm[k]%len(cats)]
		region[k] = regions[rng.Intn(len(regions))]
		value[k] = float64(valZ.Sample(rng))
		w.recs = append(w.recs, privacy.Record{
			Discrete: map[string]string{"category": category[k], "region": region[k]},
			Numeric:  map[string]float64{"value": value[k]},
		})
	}
	schema, err := relation.NewSchema(
		relation.Column{Name: "category", Kind: relation.Discrete},
		relation.Column{Name: "region", Kind: relation.Discrete},
		relation.Column{Name: "value", Kind: relation.Numeric},
	)
	if err != nil {
		return err
	}
	pop, err := relation.FromColumns(schema, map[string][]float64{"value": value},
		map[string][]string{"category": category, "region": region})
	if err != nil {
		return err
	}
	if w.meta, err = privacy.ViewMetaFor(pop, privacy.Uniform(schema, w.sz.P, w.sz.B)); err != nil {
		return err
	}
	w.fingerprint = privacy.MechanismFingerprint(w.meta)
	w.codes = codesFor(w.meta)
	w.metaPath, w.colDir = filepath.Join(env.dir, "meta.json"), filepath.Join(env.dir, "collect")
	if err := writeJSON(w.metaPath, w.meta); err != nil {
		return err
	}
	if err := w.history(o.Seed); err != nil {
		return err
	}

	crng := newRand(o.Seed, streamClients)
	for c := 0; c < w.sz.Clients; c++ {
		w.rngs = append(w.rngs, rand.New(rand.NewSource(crng.Int63())))
		w.seeds = append(w.seeds, crng.Int63())
	}
	w.next = make([]int, w.sz.Clients)
	w.sent = make([][][]byte, w.sz.Clients)

	for i := 0; i < w.sz.SetupReps; i++ {
		if w.svc != nil {
			if err := w.svc.Shutdown(context.Background()); err != nil {
				return err
			}
		}
		if err := w.start(env.trace); err != nil {
			return err
		}
	}
	return nil
}

// history appends History batches to the WAL and lets the collector's own
// startup replay fold them into the checkpoint.
func (w *ingestWorkload) history(seed int64) error {
	wal, err := collect.Open(filepath.Join(w.colDir, collect.WALDirName), collect.Options{Policy: collect.SyncNever, Tel: telemetry.Noop()})
	if err != nil {
		return err
	}
	rng := newRand(seed, streamHistory)
	hseed := rng.Int63()
	for b := 0; b < w.sz.History; b++ {
		start := b * w.sz.BatchSize
		reps, err := privacy.PrivatizeRecords(telemetry.Noop(), nil, hseed, start, w.meta, w.draw(rng))
		if err != nil {
			wal.Close()
			return err
		}
		payload, err := json.Marshal(collect.Batch{ID: batchID(w.fingerprint, "history", start, reps), Mechanism: w.fingerprint, Reports: reps})
		if err != nil {
			wal.Close()
			return err
		}
		if _, err := wal.Append(payload); err != nil {
			wal.Close()
			return err
		}
		w.uniq.add(w.codes, reps)
	}
	if err := wal.Close(); err != nil {
		return err
	}
	svc, err := collect.New(collect.Config{Dir: w.colDir, Meta: w.meta, Tel: telemetry.Noop()})
	if err != nil {
		return err
	}
	return svc.Shutdown(context.Background())
}

// draw picks one batch of client identities.
func (w *ingestWorkload) draw(rng *rand.Rand) []privacy.Record {
	out := make([]privacy.Record, w.sz.BatchSize)
	for i := range out {
		out[i] = w.recs[rng.Intn(len(w.recs))]
	}
	return out
}

// batchID derives a batch ID from the mechanism, the client, the batch
// position and the report content, the way `pc report` names its batches.
func batchID(fingerprint, client string, start int, reports []privacy.Report) string {
	h := sha256.New()
	fmt.Fprintf(h, "%d:%s%d:%s|%d|", len(fingerprint), fingerprint, len(client), client, start)
	enc := json.NewEncoder(h)
	for _, rep := range reports {
		enc.Encode(rep)
	}
	return "r-" + hex.EncodeToString(h.Sum(nil))[:40]
}

// start is `pc collect` start-up: decode the metadata, then collect.New
// recovers the checkpoint and WAL left in the directory.
func (w *ingestWorkload) start(tr *tracer) error {
	root := tr.newID()
	begin := time.Now()
	var meta *privacy.ViewMeta
	var err error
	tr.timed(root, 0, "meta.decode", func() { meta, err = readMeta(w.metaPath) })
	if err != nil {
		return err
	}
	d := tr.timed(root, 0, "collect.recovery", func() {
		w.svc, err = collect.New(collect.Config{Dir: w.colDir, Meta: meta, Fsync: ingestFsync, Tel: programTel()})
	})
	if err != nil {
		return err
	}
	end := time.Now()
	tr.record(root, 0, 0, "setup", begin, end)
	w.setupS = append(w.setupS, end.Sub(begin).Seconds())
	w.recoveryMS = append(w.recoveryMS, ms(d))
	return nil
}

// ingestRecordRate bounds the posts per second one client's records are
// sized for; resendRing is how many acked bodies a client keeps to re-send.
const (
	ingestRecordRate = 2500
	resendRing       = 1024
)

// ingestClient is one client's share of a window.
type ingestClient struct {
	done                []done
	posts, unique, shed int
	reports, failed     int
	log                 reportLog
	replay              [][]byte
}

func (w *ingestWorkload) measure(env *runEnv, window time.Duration, tr *tracer) (phase, error) {
	lb, err := serveLoopback(traceHandler(w.svc.Handler(), tr, "collect.handler"))
	if err != nil {
		return phase{}, err
	}
	records := recordCap(window, ingestRecordRate*len(w.rngs))
	win := ingestWindow{window: window, freshMS: make([]float64, 0, records)}
	var ackMu sync.Mutex
	acked := make([]time.Time, 0, records) // unique acks, in ack order
	var acks atomic.Int64
	kick := make(chan struct{}, 1)
	compactErr := make(chan error, 1)
	go func() {
		folded := 0 // acks already attributed to a finished Compact
		var err error
		for range kick {
			ackMu.Lock()
			upto := len(acked)
			ackMu.Unlock()
			start := time.Now()
			n, cerr := w.svc.Compact()
			end := time.Now()
			tr.record(0, 0, 0, "collect.compact", start, end)
			if cerr != nil && err == nil {
				err = cerr
			}
			win.compactMS = append(win.compactMS, ms(end.Sub(start)))
			if n > 0 {
				win.perBatchMS = append(win.perBatchMS, ms(end.Sub(start))/float64(n))
			}
			ackMu.Lock()
			for _, t := range acked[folded:upto] {
				win.freshMS = append(win.freshMS, ms(end.Sub(t)))
			}
			ackMu.Unlock()
			folded = upto
		}
		compactErr <- err
	}()

	parts := make([]ingestClient, len(w.rngs))
	errs := make([]error, len(w.rngs))
	start := time.Now()
	deadline := start.Add(window)
	var wg sync.WaitGroup
	for c := range w.rngs {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			errs[c] = w.client(c, lb.URL, start, deadline, tr, &parts[c], func(t time.Time, unique bool) {
				if unique {
					ackMu.Lock()
					acked = append(acked, t)
					ackMu.Unlock()
				}
				if acks.Add(1)%int64(w.sz.CompactAt) == 0 {
					select {
					case kick <- struct{}{}:
					default: // a Compact is already due; it folds these acks too
					}
				}
			})
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	close(kick)
	if err := <-compactErr; err != nil {
		return phase{}, err
	}
	if err := lb.stop(); err != nil {
		return phase{}, err
	}
	ph := phase{Elapsed: elapsed}
	for c, p := range parts {
		if errs[c] != nil {
			return phase{}, errs[c]
		}
		ph.Ops += p.posts
		ph.Failed += p.failed
		win.done = append(win.done, p.done...)
		win.posts += p.posts
		win.unique += p.unique
		win.reports += p.reports
		win.shed += p.shed
		win.replay = append(win.replay, p.replay...)
		w.uniq.merge(p.log)
	}
	ph.Useful = float64(win.reports)
	if win.diskBytes, err = w.diskBytes(); err != nil {
		return phase{}, err
	}
	w.windows = append(w.windows, win)
	return ph, nil
}

// client runs one closed loop of randomize-then-POST until deadline.
func (w *ingestWorkload) client(c int, url string, begin, deadline time.Time, tr *tracer, out *ingestClient, onAck func(time.Time, bool)) error {
	cl := newClient()
	defer cl.close()
	tel := programTel()
	rng := w.rngs[c]
	out.done = make([]done, 0, recordCap(deadline.Sub(begin), ingestRecordRate))
	out.log = newReportLog(cap(out.done) * w.sz.BatchSize)
	name := fmt.Sprintf("client-%d", c)
	for time.Now().Before(deadline) {
		var req uint64
		if tr.on {
			req = w.reqs.Add(1)
		}
		root := tr.newID()
		batchStart := time.Now()
		var body []byte
		var reps []privacy.Report
		resend := len(w.sent[c]) > 0 && rng.Float64() < w.sz.DupFrac
		if resend {
			body = w.sent[c][rng.Intn(len(w.sent[c]))]
		} else {
			recs := w.draw(rng)
			first := w.next[c]
			w.next[c] += len(recs)
			var err error
			tr.timed(root, req, "privacy.randomize", func() {
				reps, err = privacy.PrivatizeRecords(tel, nil, w.seeds[c], first, w.meta, recs)
			})
			if err != nil {
				return err
			}
			if body, err = json.Marshal(collect.Batch{ID: batchID(w.fingerprint, name, first, reps), Mechanism: w.fingerprint, Reports: reps}); err != nil {
				return err
			}
		}
		id := tr.newID()
		s := time.Now()
		status, resp, err := cl.do(http.MethodPost, url+"/v1/report", body, req, id)
		e := time.Now()
		tr.record(id, root, req, "client.post", s, e)
		tr.record(root, 0, req, "client.batch", batchStart, e)
		out.posts++
		d := done{at: e.Sub(begin), latMS: ms(e.Sub(s))}
		if status == http.StatusTooManyRequests {
			out.shed++
		}
		if err != nil || status != http.StatusOK {
			out.failed++
			out.done = append(out.done, d)
			continue
		}
		var ack struct {
			Duplicate bool `json:"duplicate"`
		}
		if err := json.Unmarshal(resp, &ack); err != nil || (!resend && ack.Duplicate) {
			out.failed++ // a first-time batch must not be taken for a duplicate
			out.done = append(out.done, d)
			continue
		}
		if !resend {
			d.useful = float64(len(reps))
			if len(w.sent[c]) < resendRing {
				w.sent[c] = append(w.sent[c], body)
			} else {
				w.sent[c][rng.Intn(resendRing)] = body
			}
			out.unique++
			out.reports += len(reps)
			out.log.add(w.codes, reps)
			if len(out.replay) < w.sz.ReplayMax {
				out.replay = append(out.replay, body)
			}
		}
		out.done = append(out.done, d)
		onAck(e, !resend)
	}
	return nil
}

// diskBytes returns the checkpoint and WAL bytes on disk.
func (w *ingestWorkload) diskBytes() ([2]int64, error) {
	var out [2]int64
	fi, err := os.Stat(filepath.Join(w.colDir, collect.StoreFileName))
	if err != nil {
		return out, err
	}
	out[0] = fi.Size()
	err = filepath.Walk(filepath.Join(w.colDir, collect.WALDirName), func(_ string, fi os.FileInfo, err error) error {
		if err == nil && fi.Mode().IsRegular() {
			out[1] += fi.Size()
		}
		return err
	})
	return out, err
}

func (w *ingestWorkload) finish(env *runEnv, phases []phase, out *metricSet) error {
	env.checked++
	if err := w.check(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: ingest:", err)
		env.failed++
	}
	first, last := w.windows[0], w.windows[len(w.windows)-1]
	env.note("samples", len(first.done))
	env.note("compactions", len(first.compactMS))

	perSec, p50, p99 := summarize(first.done, first.window)
	out.add("setup_s", median(w.setupS), "s")
	out.add("throughput_per_s", perSec, "1/s")
	out.add("latency_p50_ms", p50, "ms")
	out.add("latency_p99_ms", p99, "ms")

	out.add("collect.recovery_ms", median(w.recoveryMS), "ms")
	out.add("collect.compact_ms.p50", median(last.compactMS), "ms")
	out.add("collect.compact_ms.p99", percentile(last.compactMS, 0.99), "ms")
	out.add("collect.compact_growth", growth(last.perBatchMS), "ratio")
	out.add("collect.checkpoint_bytes", float64(last.diskBytes[0]), "bytes")
	out.add("collect.wal_bytes", float64(last.diskBytes[1]), "bytes")
	out.add("ingest.store_bytes_per_report", float64(last.diskBytes[0]+last.diskBytes[1])/float64(len(w.uniq.value)), "bytes")
	out.add("collect.unique_over_posted", float64(last.unique)/float64(last.posts), "ratio")
	out.add("collect.shed", float64(last.shed), "count")
	out.add("ingest.freshness_p50_ms", median(last.freshMS), "ms")
	out.add("ingest.freshness_p99_ms", percentile(last.freshMS, 0.99), "ms")
	if env.opts.Traced {
		if err := w.layers(env, last, out); err != nil {
			return err
		}
	}

	held := liveHeapBytes()
	if err := w.svc.Shutdown(context.Background()); err != nil {
		return err
	}
	w.svc = nil
	out.add("heap_mb", (held-liveHeapBytes())/(1<<20), "MB")
	return nil
}

// growth is the mean of the last decile of xs over the mean of the first.
func growth(xs []float64) float64 {
	k := (len(xs) + 9) / 10
	if k == 0 {
		return 0
	}
	mean := func(v []float64) float64 {
		s := 0.0
		for _, x := range v {
			s += x
		}
		return s / float64(len(v))
	}
	return mean(xs[len(xs)-k:]) / mean(xs[:k])
}

// check reads the folded statistics through /v1/stats and compares them
// with CollectStatistics over every unique report: the row count must equal
// the unique reports (duplicates fold once), per-value counts must match
// exactly and sums within 1e-9 relative.
func (w *ingestWorkload) check() error {
	rec := httptest.NewRecorder()
	w.svc.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/stats", nil))
	if rec.Code != http.StatusOK {
		return fmt.Errorf("/v1/stats: status %d: %s", rec.Code, rec.Body.String())
	}
	var got estimator.Statistics
	if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
		return err
	}
	schema, err := collect.SchemaFor(w.meta)
	if err != nil {
		return err
	}
	decode := func(attr string, cs []uint16) []string {
		out := make([]string, len(cs))
		for i, c := range cs {
			out[i] = w.meta.Discrete[attr].Domain[c]
		}
		return out
	}
	rel, err := relation.FromColumns(schema, map[string][]float64{"value": w.uniq.value},
		map[string][]string{"category": decode("category", w.uniq.category), "region": decode("region", w.uniq.region)})
	if err != nil {
		return err
	}
	want, err := estimator.CollectStatistics(relation.NewSliceIterator(rel, 4096))
	if err != nil {
		return err
	}
	if got.Rows != want.Rows {
		return fmt.Errorf("collector folded %d rows, want %d unique reports", got.Rows, want.Rows)
	}
	for attr, vals := range want.Discrete {
		if len(got.Discrete[attr]) != len(vals) {
			return fmt.Errorf("%s: %d values, want %d", attr, len(got.Discrete[attr]), len(vals))
		}
		for v, ws := range vals {
			gs, ok := got.Discrete[attr][v]
			if !ok || gs.Count != ws.Count {
				return fmt.Errorf("%s=%s: count mismatch", attr, v)
			}
			for agg, sum := range ws.Sums {
				if !relClose(gs.Sums[agg], sum, 1e-9) {
					return fmt.Errorf("%s=%s: sum(%s) = %v, want %v", attr, v, agg, gs.Sums[agg], sum)
				}
			}
		}
	}
	for attr, wm := range want.Numeric {
		gm := got.Numeric[attr]
		if gm.Count != wm.Count || !relClose(gm.Sum, wm.Sum, 1e-9) || !relClose(gm.SumSq, wm.SumSq, 1e-9) {
			return fmt.Errorf("%s: moments %+v, want %+v", attr, gm, wm)
		}
	}
	return nil
}

// layers adds the span-derived metrics of the traced window, and times
// WAL appends alone by replaying the window's payloads through a fresh WAL
// under the window's fsync policy.
func (w *ingestWorkload) layers(env *runEnv, win ingestWindow, out *metricSet) error {
	tr := env.trace
	out.add("privacy.randomize_us_per_report", median(tr.durations("privacy.randomize"))/float64(w.sz.BatchSize), "us")
	handler := tr.durations("collect.handler")
	out.add("collect.handler_us.p50", median(handler), "us")
	out.add("collect.handler_us.p99", percentile(handler, 0.99), "us")

	dir := filepath.Join(env.dir, "wal-replay")
	wal, err := collect.Open(dir, collect.Options{Policy: ingestFsync, Tel: telemetry.Noop()})
	if err != nil {
		return err
	}
	for i, body := range win.replay {
		if i == w.sz.ReplayMax {
			break
		}
		tr.timed(0, 0, "collect.wal_append", func() { _, err = wal.Append(body) })
		if err != nil {
			wal.Close()
			return err
		}
	}
	if err := wal.Close(); err != nil {
		return err
	}
	out.add("collect.wal_append_us.p50", median(tr.durations("collect.wal_append")), "us")
	return os.RemoveAll(dir)
}
