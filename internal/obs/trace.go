package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// Tracer streams run spans as Chrome trace event format JSON — the file
// `rbb-sim -trace` writes loads directly in chrome://tracing or Perfetto.
// Events are written as they complete (no in-memory event buffer, so a
// million-round run cannot exhaust memory); Close terminates the JSON
// document, which is valid only after Close. Safe for concurrent use.
type Tracer struct {
	mu    sync.Mutex
	w     io.Writer
	start time.Time
	n     int
	err   error
}

// traceEvent is one Chrome trace event. Ph "X" is a complete event (ts +
// dur), "i" an instant, "M" metadata. Timestamps are microseconds from the
// tracer's start.
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// NewTracer starts a tracer writing to w. The caller owns w and closes it
// after Close.
func NewTracer(w io.Writer) *Tracer {
	t := &Tracer{w: w, start: time.Now()}
	_, err := io.WriteString(w, `{"displayTimeUnit":"ms","traceEvents":[`)
	t.err = err
	return t
}

// emit appends one event (comma-separated after the first).
func (t *Tracer) emit(ev traceEvent) {
	blob, err := json.Marshal(ev)
	if err != nil {
		return // fixed field types; unreachable
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.err != nil {
		return
	}
	if t.n > 0 {
		if _, t.err = t.w.Write([]byte{','}); t.err != nil {
			return
		}
	}
	_, t.err = t.w.Write(blob)
	t.n++
}

// us converts an instant to microseconds from the tracer's start.
func (t *Tracer) us(at time.Time) float64 {
	return float64(at.Sub(t.start)) / float64(time.Microsecond)
}

// Span is one open interval; End records it. The zero Span (from a nil
// tracer) is inert.
type Span struct {
	t     *Tracer
	name  string
	tid   int
	start time.Time
}

// StartSpan opens a span on lane tid. Safe on a nil tracer (inert span).
func (t *Tracer) StartSpan(name string, tid int) Span {
	if t == nil {
		return Span{}
	}
	return Span{t: t, name: name, tid: tid, start: time.Now()}
}

// End closes the span, emitting a complete ("X") event.
func (s Span) End() {
	if s.t == nil {
		return
	}
	s.t.emit(traceEvent{
		Name: s.name,
		Ph:   "X",
		Ts:   s.t.us(s.start),
		Dur:  time.Since(s.start).Seconds() * 1e6,
		Pid:  1,
		Tid:  s.tid,
	})
}

// Instant emits a zero-duration instant event (scope: thread) with optional
// args. Safe on a nil tracer.
func (t *Tracer) Instant(name string, tid int, args map[string]any) {
	if t == nil {
		return
	}
	t.emit(traceEvent{Name: name, Ph: "i", Ts: t.us(time.Now()), Pid: 1, Tid: tid, S: "t", Args: args})
}

// Meta names a lane ("M" thread_name metadata), so the trace viewer shows
// "phases" instead of "tid 0".
func (t *Tracer) Meta(tid int, name string) {
	if t == nil {
		return
	}
	t.emit(traceEvent{Name: "thread_name", Ph: "M", Pid: 1, Tid: tid, Args: map[string]any{"name": name}})
}

// Close terminates the JSON document and returns the first write error, if
// any. The tracer must not be used afterwards (further events are dropped).
func (t *Tracer) Close() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.err == nil {
		_, t.err = io.WriteString(t.w, "]}\n")
		if t.err == nil {
			t.err = errClosed
			return nil
		}
	}
	err := t.err
	if err == errClosed {
		return nil
	}
	t.err = errClosed
	return err
}

var errClosed = fmt.Errorf("obs: tracer closed")

// Lane ids used by the instrumented layers: phases on 0, checkpoint writes
// on 1, so the two kinds of work stack on separate rows in the viewer.
const (
	LanePhases = 0
	LaneCkpt   = 1
)

// tracer is the installed process-wide tracer (nil = tracing off).
var tracer atomic.Pointer[Tracer]

// SetTracer installs (or, with nil, removes) the process-wide tracer the
// instrumented layers emit into.
func SetTracer(t *Tracer) { tracer.Store(t) }

// StartSpan opens a span on the installed tracer; with none installed the
// returned span is inert. One atomic load when tracing is off.
func StartSpan(name string, tid int) Span {
	return tracer.Load().StartSpan(name, tid)
}

// Instant emits an instant event on the installed tracer, if any.
func Instant(name string, tid int, args map[string]any) {
	tracer.Load().Instant(name, tid, args)
}
