package serve

import (
	"encoding/json"
	"sync"
)

// Event kinds carried on a job's event log and emitted over SSE as the
// `event:` field.
const (
	// EventStatus: a job state transition; data is the Status JSON.
	EventStatus = "status"
	// EventProgress: the visible step counter advanced; data is
	// {"id":...,"step":N}.
	EventProgress = "progress"
	// EventMetrics: one line of the per-job telemetry.Streamer JSONL
	// feed; data is the stream record verbatim.
	EventMetrics = "metrics"
)

// Event is one entry on a job's event log. IDs are per-job, contiguous
// and start at 1, so SSE Last-Event-ID resume is a simple replay of
// every event with a larger ID.
type Event struct {
	ID   int64           `json:"id"`
	Type string          `json:"type"`
	Data json.RawMessage `json:"data"`
}

// eventLogCap bounds the per-job ring: old events are dropped once a
// job has produced this many, and a reconnect asking for older IDs
// resumes from the oldest retained event instead. Sized to hold every
// status transition plus minutes of metrics/progress cadence.
const eventLogCap = 1024

// eventLog is a bounded, append-only per-job event ring with broadcast
// wakeups for SSE subscribers. It has its own mutex — strictly a leaf:
// publish is called with the scheduler mutex held, never the reverse.
type eventLog struct {
	mu     sync.Mutex
	events []Event // ring contents, oldest first
	nextID int64   // ID the next published event receives
	closed bool
	wake   chan struct{} // closed-and-replaced on every append, closed on close
}

func newEventLog() *eventLog {
	return &eventLog{nextID: 1, wake: make(chan struct{})}
}

// publish appends one event and wakes subscribers. No-op after close:
// a terminal event is final by contract.
func (l *eventLog) publish(kind string, data []byte) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return
	}
	l.events = append(l.events, Event{ID: l.nextID, Type: kind, Data: data})
	l.nextID++
	if len(l.events) > eventLogCap {
		l.events = l.events[len(l.events)-eventLogCap:]
	}
	close(l.wake)
	l.wake = make(chan struct{})
}

// closeLog marks the log terminal and wakes subscribers one last time.
// The closed wake channel stays: since reports the log closed, so no
// subscriber waits on it again. Idempotent.
func (l *eventLog) closeLog() {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return
	}
	l.closed = true
	close(l.wake)
}

// since returns a copy of every retained event with ID > after, the
// wake channel to wait on when caught up, and whether the log is
// closed. A reconnect with a pre-ring ID silently resumes from the
// oldest retained event.
func (l *eventLog) since(after int64) ([]Event, <-chan struct{}, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []Event
	for _, e := range l.events {
		if e.ID > after {
			out = append(out, e)
		}
	}
	return out, l.wake, l.closed
}

// eventWriter adapts an eventLog to io.Writer so a telemetry.Streamer
// can tail a job's recorder straight onto its event feed: each JSONL
// line the streamer writes becomes one EventMetrics entry.
type eventWriter struct {
	log *eventLog
}

func (w *eventWriter) Write(p []byte) (int, error) {
	// The streamer writes exactly one line per call, newline-terminated.
	data := make([]byte, len(p))
	copy(data, p)
	if n := len(data); n > 0 && data[n-1] == '\n' {
		data = data[:n-1]
	}
	w.log.publish(EventMetrics, data)
	return len(p), nil
}
