package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around the
// program's public entry points. Req ties the spans of one request (or
// batch, or job) together, including replays of that request; Parent is the
// span that caused this one (0 for a root).
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Req    uint64 `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run writes them out. A disabled
// tracer records nothing and costs a branch per call.
type tracer struct {
	on    bool
	epoch time.Time
	ids   atomic.Uint64
	mu    sync.Mutex
	spans []span
}

func newTracer(on bool) *tracer {
	t := &tracer{on: on, epoch: time.Now()}
	if on {
		t.spans = make([]span, 0, 1<<18) // a traced window's spans, allocated before it starts
	}
	return t
}

// newID reserves a span ID, so children can name a parent that has not
// ended yet. It returns 0 when tracing is off.
func (t *tracer) newID() uint64 {
	if !t.on {
		return 0
	}
	return t.ids.Add(1)
}

// record stores a finished span under a reserved ID (0 reserves one) and
// returns its ID.
func (t *tracer) record(id, parent, req uint64, name string, start, end time.Time) uint64 {
	if !t.on {
		return 0
	}
	if id == 0 {
		id = t.newID()
	}
	s := span{ID: id, Parent: parent, Req: req, Name: name,
		Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch))}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return id
}

// timed runs f under a span and returns its duration.
func (t *tracer) timed(parent, req uint64, name string, f func()) time.Duration {
	start := time.Now()
	f()
	end := time.Now()
	t.record(0, parent, req, name, start, end)
	return end.Sub(start)
}

func (t *tracer) count() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// byName returns the spans called name, in recording order.
func (t *tracer) byName(name string) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// durations returns the durations of the spans called name, in µs.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.byName(name) {
		out = append(out, us(s.dur()))
	}
	return out
}

// perReq returns the duration of the spans called name keyed by request.
// When a request has several, their durations add up.
func (t *tracer) perReq(name string) map[uint64]time.Duration {
	out := map[uint64]time.Duration{}
	for _, s := range t.byName(name) {
		out[s.Req] += s.dur()
	}
	return out
}

func (t *tracer) writeFile(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	t.mu.Lock()
	data, err := json.Marshal(map[string]any{"epoch": t.epoch, "spans": t.spans})
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
