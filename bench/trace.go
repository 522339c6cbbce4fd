package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"
)

// Trace tracks (Chrome "tid") group the spans by who made the call.
const (
	trackSteps     = 1  // traced MD steps and their phase children
	trackPlainStep = 2  // untraced MD steps (telemetry-overhead reference)
	trackLayers    = 3  // layer calls timed on copies of the state
	trackBaseline  = 4  // serial baseline steps
	trackSetup     = 5  // set-up and correctness gates
	trackClient    = 10 // serve clients: trackClient + client index
	trackStore     = 20 // store calls
)

// span is one recorded interval. Derived spans carry a duration the
// program measured itself (the telemetry phase timers) or one the
// benchmark measured on a copy of the state; their position inside the
// parent step is laid out by the benchmark, not observed.
type span struct {
	name       string
	start, end time.Time
	parent     int // index of the parent span, -1 at top level
	trace      int64
	track      int
	derived    bool
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced runs pay one nil check per call site.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// add records a finished span and returns its index (-1 when tracing is
// off).
func (t *tracer) add(s span) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, s)
	return len(t.spans) - 1
}

// record adds a measured span [start, end).
func (t *tracer) record(name string, start, end time.Time, parent int, trace int64, track int) int {
	return t.add(span{name: name, start: start, end: end, parent: parent, trace: trace, track: track})
}

// derive adds a span of known duration placed at start.
func (t *tracer) derive(name string, start time.Time, d time.Duration, parent int, trace int64, track int) time.Time {
	end := start.Add(d)
	t.add(span{name: name, start: start, end: end, parent: parent, trace: trace, track: track, derived: true})
	return end
}

// timed runs fn and records it as a span.
func (t *tracer) timed(name string, parent int, trace int64, track int, fn func()) time.Duration {
	start := time.Now()
	fn()
	end := time.Now()
	t.record(name, start, end, parent, trace, track)
	return end.Sub(start)
}

func (t *tracer) len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// selfTimes aggregates, per span name, the count, total duration and
// self time: a span's duration minus its children's durations.
func (t *tracer) selfTimes() []selfTime {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 {
			child[s.parent] += s.end.Sub(s.start)
		}
	}
	by := map[string]*selfTime{}
	for i, s := range t.spans {
		st := by[s.name]
		if st == nil {
			st = &selfTime{name: s.name}
			by[s.name] = st
		}
		d := s.end.Sub(s.start)
		st.count++
		st.total += d
		st.self += d - child[i]
	}
	out := make([]selfTime, 0, len(by))
	for _, st := range by {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

type selfTime struct {
	name        string
	count       int
	total, self time.Duration
}

func (t *tracer) printSelfTimes(w io.Writer) {
	logf(w, "%-28s %7s %12s %12s %10s\n", "span", "count", "total_ms", "self_ms", "self_ms/n")
	for _, st := range t.selfTimes() {
		logf(w, "%-28s %7d %12.3f %12.3f %10.4f\n", st.name, st.count,
			ms(st.total), ms(st.self), ms(st.self)/float64(st.count))
	}
}

// chromeEvent is one complete ("X") event of the Chrome trace-event
// format, which Perfetto and chrome://tracing open directly.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`  // µs since the run started
	Dur  float64        `json:"dur"` // µs
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// writeChrome writes every span as Chrome trace-event JSON.
func (t *tracer) writeChrome(path string) error {
	t.mu.Lock()
	events := make([]chromeEvent, 0, len(t.spans))
	for i, s := range t.spans {
		args := map[string]any{"span": i, "parent": s.parent, "trace_id": s.trace}
		if s.derived {
			args["derived"] = true
		}
		events = append(events, chromeEvent{
			Name: s.name, Ph: "X", Pid: 1, Tid: s.track, Args: args,
			Ts:  float64(s.start.Sub(t.t0).Nanoseconds()) / 1e3,
			Dur: float64(s.end.Sub(s.start).Nanoseconds()) / 1e3,
		})
	}
	t.mu.Unlock()
	b, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return fmt.Errorf("encode trace: %w", err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	return nil
}
