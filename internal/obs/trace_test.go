package obs

import (
	"encoding/json"
	"strings"
	"testing"
	"time"
)

// chromeTrace mirrors the top-level Chrome trace JSON object for decoding.
type chromeTrace struct {
	DisplayTimeUnit string       `json:"displayTimeUnit"`
	TraceEvents     []traceEvent `json:"traceEvents"`
}

// TestTracerChromeJSON: a traced run produces a document that parses as
// Chrome trace format JSON with the expected event shapes.
func TestTracerChromeJSON(t *testing.T) {
	var b strings.Builder
	tr := NewTracer(&b)
	tr.Meta(LanePhases, "phases")
	sp := tr.StartSpan("release", LanePhases)
	time.Sleep(time.Millisecond)
	sp.End()
	tr.Instant("widen", LanePhases, map[string]any{"to": "16"})
	sp2 := tr.StartSpan("ckpt", LaneCkpt)
	sp2.End()
	if err := tr.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := tr.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}

	var doc chromeTrace
	if err := json.Unmarshal([]byte(b.String()), &doc); err != nil {
		t.Fatalf("trace output is not valid JSON: %v\n%s", err, b.String())
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q", doc.DisplayTimeUnit)
	}
	if len(doc.TraceEvents) != 4 {
		t.Fatalf("got %d events, want 4", len(doc.TraceEvents))
	}
	meta, span, instant, ckpt := doc.TraceEvents[0], doc.TraceEvents[1], doc.TraceEvents[2], doc.TraceEvents[3]
	if meta.Ph != "M" || meta.Name != "thread_name" || meta.Args["name"] != "phases" {
		t.Errorf("bad metadata event: %+v", meta)
	}
	if span.Ph != "X" || span.Name != "release" || span.Tid != LanePhases || span.Pid != 1 {
		t.Errorf("bad span event: %+v", span)
	}
	if span.Dur < 500 { // slept 1ms; dur is in microseconds
		t.Errorf("span dur = %v µs, want >= 500", span.Dur)
	}
	if instant.Ph != "i" || instant.S != "t" || instant.Args["to"] != "16" {
		t.Errorf("bad instant event: %+v", instant)
	}
	if instant.Ts < span.Ts {
		t.Errorf("instant ts %v before span ts %v", instant.Ts, span.Ts)
	}
	if ckpt.Tid != LaneCkpt {
		t.Errorf("ckpt span on tid %d, want %d", ckpt.Tid, LaneCkpt)
	}
}

// TestNilTracerInert: every entry point is safe with no tracer installed.
func TestNilTracerInert(t *testing.T) {
	SetTracer(nil)
	sp := StartSpan("x", LanePhases)
	sp.End()
	Instant("y", LanePhases, nil)
	var nilT *Tracer
	nilT.StartSpan("z", 0).End()
	nilT.Instant("z", 0, nil)
	nilT.Meta(0, "z")
	if tracer.Load() != nil {
		t.Error("tracer still installed")
	}
}

// TestGlobalTracer: package-level StartSpan/Instant route to the installed
// tracer.
func TestGlobalTracer(t *testing.T) {
	var b strings.Builder
	tr := NewTracer(&b)
	SetTracer(tr)
	defer SetTracer(nil)
	StartSpan("phase", LanePhases).End()
	Instant("mark", LaneCkpt, nil)
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	var doc chromeTrace
	if err := json.Unmarshal([]byte(b.String()), &doc); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if len(doc.TraceEvents) != 2 {
		t.Fatalf("got %d events, want 2", len(doc.TraceEvents))
	}
}
