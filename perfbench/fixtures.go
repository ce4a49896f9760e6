package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"privateclean/internal/dist"
	"privateclean/internal/privacy"
	"privateclean/internal/relation"
	"privateclean/internal/telemetry"
)

// Seeds of the independent generator streams one --seed fans out to.
const (
	streamRelation = iota + 1
	streamPrivatize
	streamCleaning
	streamClients
	streamHistory
)

func subSeed(seed int64, stream int) int64 {
	return int64(privacy.StreamSeed(seed, stream))
}

func newRand(seed int64, stream int) *rand.Rand {
	return rand.New(rand.NewSource(subSeed(seed, stream)))
}

func categoryName(k int) string { return fmt.Sprintf("c%04d", k) }
func regionName(k int) string   { return fmt.Sprintf("r%02d", k) }

func names(n int, name func(int) string) []string {
	out := make([]string, n)
	for k := range out {
		out[k] = name(k)
	}
	return out
}

// genRelation builds the relation the serve workloads and the provider
// layers use: category (Zipf over the domain, rank 0 hottest), region
// (uniform), value (a Zipf rank in [0, ValueMax]) and score (uniform in
// [0, ScoreMax), three decimals).
func genRelation(rng *rand.Rand, sz sizes) (*relation.Relation, error) {
	catZ, err := dist.NewZipf(sz.Categories, sz.Zipf)
	if err != nil {
		return nil, err
	}
	valZ, err := dist.NewZipf(sz.ValueMax+1, sz.Zipf)
	if err != nil {
		return nil, err
	}
	cats, regions := names(sz.Categories, categoryName), names(sz.Regions, regionName)
	category, region := make([]string, sz.Rows), make([]string, sz.Rows)
	value, score := make([]float64, sz.Rows), make([]float64, sz.Rows)
	for i := 0; i < sz.Rows; i++ {
		category[i] = cats[catZ.Sample(rng)]
		region[i] = regions[rng.Intn(sz.Regions)]
		value[i] = float64(valZ.Sample(rng))
		score[i] = math.Round(rng.Float64()*sz.ScoreMax*1000) / 1000
	}
	schema, err := relation.NewSchema(
		relation.Column{Name: "category", Kind: relation.Discrete},
		relation.Column{Name: "region", Kind: relation.Discrete},
		relation.Column{Name: "value", Kind: relation.Numeric},
		relation.Column{Name: "score", Kind: relation.Numeric},
	)
	if err != nil {
		return nil, err
	}
	return relation.FromColumns(schema,
		map[string][]float64{"value": value, "score": score},
		map[string][]string{"category": category, "region": region})
}

// programTel is the telemetry a CLI service runs with by default: warn-level
// text logs to stderr, a metrics registry and a span tracer.
func programTel() *telemetry.Set {
	red := telemetry.NewRedactor()
	return &telemetry.Set{
		Log:     telemetry.NewLogger(os.Stderr, slog.LevelWarn, "text", red),
		Metrics: telemetry.NewRegistry(red),
		Trace:   telemetry.NewTracer(red),
		Redact:  red,
	}
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// readMeta decodes and validates view metadata as `pc serve` does.
func readMeta(path string) (*privacy.ViewMeta, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	meta := &privacy.ViewMeta{}
	if err := json.Unmarshal(data, meta); err != nil {
		return nil, err
	}
	return meta, meta.Validate()
}

// loopback serves h on an ephemeral 127.0.0.1 port until stop returns.
type loopback struct {
	srv  *http.Server
	done chan error
	URL  string
}

func serveLoopback(h http.Handler) (*loopback, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	lb := &loopback{srv: &http.Server{Handler: h}, done: make(chan error, 1), URL: "http://" + l.Addr().String()}
	go func() { lb.done <- lb.srv.Serve(l) }()
	return lb, nil
}

func (lb *loopback) stop() error {
	if err := lb.srv.Close(); err != nil {
		return err
	}
	if err := <-lb.done; err != http.ErrServerClosed {
		return err
	}
	return nil
}

// Request headers carrying the benchmark's request and parent-span IDs to
// the server-side span wrapper; the program ignores them.
const (
	hdrReq    = "X-Perfbench-Req"
	hdrParent = "X-Perfbench-Parent"
)

// traceHandler records a span named name around every call into h.
func traceHandler(h http.Handler, tr *tracer, name string) http.Handler {
	if !tr.on {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		req, _ := strconv.ParseUint(r.Header.Get(hdrReq), 10, 64)
		parent, _ := strconv.ParseUint(r.Header.Get(hdrParent), 10, 64)
		start := time.Now()
		h.ServeHTTP(w, r)
		tr.record(0, parent, req, name, start, time.Now())
	})
}

// client is one closed-loop connection: it sends a request only after the
// previous reply has been read.
type client struct {
	hc *http.Client
	tr *http.Transport
}

func newClient() *client {
	tr := &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &client{hc: &http.Client{Transport: tr, Timeout: 30 * time.Second}, tr: tr}
}

func (c *client) close() { c.tr.CloseIdleConnections() }

// do sends one request and returns the status and the body read in full.
func (c *client) do(method, url string, body []byte, req, parent uint64) (int, []byte, error) {
	r, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	r.Header.Set("Content-Type", "application/json")
	if req != 0 {
		r.Header.Set(hdrReq, strconv.FormatUint(req, 10))
		r.Header.Set(hdrParent, strconv.FormatUint(parent, 10))
	}
	resp, err := c.hc.Do(r)
	if err != nil {
		return 0, nil, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, data, err
}

// relClose reports whether a and b agree within tol relative to the larger
// magnitude (absolutely, near zero).
func relClose(a, b, tol float64) bool {
	if a == b {
		return true
	}
	scale := math.Max(math.Max(math.Abs(a), math.Abs(b)), 1)
	return math.Abs(a-b) <= tol*scale
}

func quoteList(vals []string) string {
	q := make([]string, len(vals))
	for i, v := range vals {
		q[i] = "'" + v + "'"
	}
	return strings.Join(q, ", ")
}
