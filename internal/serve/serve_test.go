package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/shard"
	"repro/internal/spec"
)

// Info returns the public state of the run with the given id.
func (s *Server) Info(id string) (RunInfo, bool) {
	r, ok := s.lookup(id)
	if !ok {
		return RunInfo{}, false
	}
	return r.Info(), true
}

// newTestServer builds a Server (+ its HTTP front) and tears both down
// with the test.
func newTestServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		s.Shutdown()
		hs.Close()
	})
	return s, hs
}

// refSummary recomputes a spec's result in-process, the way cmd/rbb-sim
// does — the oracle every service-path result must match exactly.
func refSummary(t *testing.T, sp Spec) shard.Summary {
	t.Helper()
	if err := sp.Normalize(0); err != nil {
		t.Fatal(err)
	}
	loads, err := sp.MakeLoads()
	if err != nil {
		t.Fatal(err)
	}
	pipe, err := shard.NewPipeline(sp.Quantiles)
	if err != nil {
		t.Fatal(err)
	}
	var rule shard.ArrivalRule
	switch sp.Process {
	case spec.ProcessTetris:
		rule = shard.ArrivalRule{Kind: shard.ArrivalQuota, Lambda: sp.Lambda}
	case spec.ProcessBatches:
		rule = shard.ArrivalRule{Kind: shard.ArrivalBinomial, Lambda: sp.Lambda}
	}
	p, err := shard.NewProcess(loads, sp.Seed, shard.Options{Shards: sp.Shards, Rule: rule})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	engine.Run(p, sp.Rounds, pipe)
	return pipe.SummaryFor(p)
}

// submit POSTs a spec and returns the accepted RunInfo.
func submit(t *testing.T, hs *httptest.Server, spec Spec) RunInfo {
	t.Helper()
	blob, _ := json.Marshal(spec)
	resp, err := http.Post(hs.URL+"/v1/runs", "application/json", bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d", resp.StatusCode)
	}
	var info RunInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	return info
}

// waitStatus polls until the run reaches want (failing fast on any other
// terminal state).
func waitStatus(t *testing.T, s *Server, id string, want Status) RunInfo {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		info, ok := s.Info(id)
		if !ok {
			t.Fatalf("run %s disappeared", id)
		}
		if info.Status == want {
			return info
		}
		if info.Status.Terminal() {
			t.Fatalf("run %s reached %s (error %q) while waiting for %s", id, info.Status, info.Error, want)
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("run %s never reached %s", id, want)
	return RunInfo{}
}

// TestSubmitStreamResult is the happy path: submit → stream → result, with
// the result checked against the in-process oracle.
func TestSubmitStreamResult(t *testing.T) {
	s, hs := newTestServer(t, Options{Workers: 2, Dir: t.TempDir()})
	sp := Spec{Seed: 7, N: 2048, Rounds: 400, Shards: 4, Quantiles: []float64{0.5, 0.99}}
	info := submit(t, hs, sp)
	if info.Status != StatusQueued && info.Status != StatusRunning {
		t.Fatalf("fresh run status %s", info.Status)
	}
	if info.Spec.M != 2048 || info.Spec.Process != spec.ProcessRBB || info.Spec.Shards != 4 {
		t.Fatalf("normalization lost: %+v", info.Spec)
	}

	// Stream until the terminal line. Intermediate lines are Events with
	// monotonically increasing rounds; the last line is the RunInfo.
	resp, err := http.Get(hs.URL + "/v1/runs/" + info.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("stream content type %q", ct)
	}
	var lines []string
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		lines = append(lines, sc.Text())
	}
	if len(lines) == 0 {
		t.Fatal("stream delivered nothing")
	}
	last := int64(-1)
	for _, l := range lines[:len(lines)-1] {
		var ev Event
		if err := json.Unmarshal([]byte(l), &ev); err != nil {
			t.Fatalf("bad event %q: %v", l, err)
		}
		if ev.Round <= last {
			t.Fatalf("events out of order: %d after %d", ev.Round, last)
		}
		last = ev.Round
	}
	var final RunInfo
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &final); err != nil {
		t.Fatalf("bad terminal line %q: %v", lines[len(lines)-1], err)
	}
	if final.Status != StatusDone || final.Round != 400 || final.Summary == nil {
		t.Fatalf("terminal line: %+v", final)
	}

	want := refSummary(t, sp)
	if !reflect.DeepEqual(*final.Summary, want) {
		t.Fatalf("summary diverged from rbb-sim oracle:\n got %+v\nwant %+v", *final.Summary, want)
	}

	// The result endpoint serves the same summary.
	rr, err := http.Get(hs.URL + "/v1/runs/" + info.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer rr.Body.Close()
	if rr.StatusCode != http.StatusOK {
		t.Fatalf("result status %d", rr.StatusCode)
	}
	var got shard.Summary
	if err := json.NewDecoder(rr.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("result endpoint diverged:\n got %+v\nwant %+v", got, want)
	}

	// Listing includes the run; health reports it terminal.
	if runs := s.Runs(); len(runs) != 1 || runs[0].ID != info.ID {
		t.Fatalf("listing: %+v", runs)
	}
	if q, r, term := s.Counters(); q != 0 || r != 0 || term != 1 {
		t.Fatalf("counters: %d/%d/%d", q, r, term)
	}
}

// TestStreamSSE: a done run's stream with an SSE accept header yields
// data: frames and the terminal state.
func TestStreamSSE(t *testing.T) {
	s, hs := newTestServer(t, Options{Workers: 1})
	info := submit(t, hs, Spec{Seed: 3, N: 256, Rounds: 50, Shards: 1})
	waitStatus(t, s, info.ID, StatusDone)
	req, _ := http.NewRequest("GET", hs.URL+"/v1/runs/"+info.ID+"/stream", nil)
	req.Header.Set("Accept", "text/event-stream")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	if !strings.HasPrefix(buf.String(), "data: ") {
		t.Fatalf("not SSE framed: %q", buf.String())
	}
}

// TestTetrisAndBatches: the non-checkpointable processes run through the
// service and match their oracles.
func TestTetrisAndBatches(t *testing.T) {
	s, hs := newTestServer(t, Options{Workers: 2})
	for _, sp := range []Spec{
		{Process: spec.ProcessTetris, Seed: 11, N: 1024, Rounds: 300, Shards: 2},
		{Process: spec.ProcessBatches, Seed: 12, N: 1024, Rounds: 300, Shards: 4, Lambda: 0.5, Quantiles: []float64{0.9}},
	} {
		info := submit(t, hs, sp)
		final := waitStatus(t, s, info.ID, StatusDone)
		want := refSummary(t, sp)
		if !reflect.DeepEqual(*final.Summary, want) {
			t.Fatalf("%s summary diverged:\n got %+v\nwant %+v", sp.Process, *final.Summary, want)
		}
	}
}

// TestBadInput: malformed and invalid submissions are rejected with 400,
// unknown runs with 404, premature results with 409.
func TestBadInput(t *testing.T) {
	_, hs := newTestServer(t, Options{Workers: 1})
	post := func(body string) int {
		resp, err := http.Post(hs.URL+"/v1/runs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	for _, body := range []string{
		`{`,                                                 // malformed JSON
		`{"seed":1,"rounds":10}`,                            // n missing
		`{"n":2147483649,"rounds":10}`,                      // n over 2^31
		`{"n":100}`,                                         // rounds missing
		`{"n":100,"rounds":-1}`,                             // negative rounds
		`{"n":10,"rounds":5,"shards":20}`,                   // shards > n
		`{"n":10,"rounds":5,"process":"bogus"}`,             // unknown process
		`{"n":10,"rounds":5,"init":"bogus"}`,                // unknown init
		`{"n":10,"rounds":5,"quantiles":[1.5]}`,             // quantile outside (0,1)
		`{"n":10,"rounds":5,"process":"tetris","m":7}`,      // m on tetris
		`{"n":10,"rounds":5,"lambda":0.9}`,                  // lambda on rbb
		`{"n":10,"rounds":5,"lambda":2,"process":"tetris"}`, // bad lambda
		`{"n":10,"rounds":5,"bogus_field":1}`,               // unknown field
	} {
		if code := post(body); code != http.StatusBadRequest {
			t.Errorf("body %s: status %d, want 400", body, code)
		}
	}
	for _, url := range []string{"/v1/runs/zzz", "/v1/runs/zzz/result", "/v1/runs/zzz/stream"} {
		resp, err := http.Get(hs.URL + url)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s: status %d, want 404", url, resp.StatusCode)
		}
	}
	// checkpoint-now without a data directory is a conflict.
	info := submit(t, hs, Spec{Seed: 1, N: 64, Rounds: 5})
	resp, err := http.Post(hs.URL+"/v1/runs/"+info.ID+"/checkpoint", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("checkpoint without dir: status %d, want 409", resp.StatusCode)
	}
}

// TestCancelRunningAndQueued: cancelling hits both a running run (stops at
// the next round boundary, checkpoint removed) and a queued one (finalized
// immediately); a full queue rejects with 503.
func TestCancelRunningAndQueued(t *testing.T) {
	dir := t.TempDir()
	s, hs := newTestServer(t, Options{Workers: 1, RunWorkers: 1, MaxQueue: 1, Dir: dir})
	// A run long enough to still be in flight when the cancel lands.
	long := Spec{Seed: 2, N: 1024, Rounds: 50_000_000, Shards: 2, StreamEvery: 1}
	running := submit(t, hs, long)
	waitStatus(t, s, running.ID, StatusRunning)
	queued := submit(t, hs, Spec{Seed: 3, N: 64, Rounds: 10})

	// Queue is now full (capacity 1): the next submission bounces.
	blob, _ := json.Marshal(Spec{Seed: 4, N: 64, Rounds: 10})
	resp, err := http.Post(hs.URL+"/v1/runs", "application/json", bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("full queue: status %d, want 503", resp.StatusCode)
	}

	// Cancel the queued run: terminal immediately, before any worker.
	req, _ := http.NewRequest("DELETE", hs.URL+"/v1/runs/"+queued.ID, nil)
	if resp, err = http.DefaultClient.Do(req); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("cancel queued: status %d", resp.StatusCode)
	}
	if info, _ := s.Info(queued.ID); info.Status != StatusCancelled {
		t.Fatalf("queued run not cancelled: %+v", info)
	}
	// The cancelled entry frees its queue slot immediately: a new
	// submission fits even though the worker is still busy.
	queued2 := submit(t, hs, Spec{Seed: 5, N: 64, Rounds: 10})
	if ok, err := s.Cancel(queued2.ID); err != nil || !ok {
		t.Fatalf("cancel refilled slot: ok=%v err=%v", ok, err)
	}

	// Cancel the running run: stops at the next round boundary.
	if resp, err = http.Post(hs.URL+"/v1/runs/"+running.ID+"/cancel", "", nil); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("cancel running: status %d", resp.StatusCode)
	}
	final := waitStatus(t, s, running.ID, StatusCancelled)
	if final.Round <= 0 || final.Round >= long.Rounds {
		t.Fatalf("cancelled at round %d", final.Round)
	}
	if has, err := (&store{dir: dir}).HasCheckpoint(running.ID); err != nil || has {
		t.Fatalf("cancelled run left a checkpoint behind (has=%v err=%v)", has, err)
	}
	// Cancelling again is a conflict.
	if resp, err = http.Post(hs.URL+"/v1/runs/"+running.ID+"/cancel", "", nil); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("double cancel: status %d, want 409", resp.StatusCode)
	}
}

// TestCheckpointOnDemand: the checkpoint-now endpoint snapshots a running
// run without stopping it, and the snapshot resumes correctly.
func TestCheckpointOnDemand(t *testing.T) {
	dir := t.TempDir()
	s, hs := newTestServer(t, Options{Workers: 1, RunWorkers: 1, Dir: dir})
	spec := Spec{Seed: 5, N: 1024, Rounds: 50_000_000, Shards: 4, StreamEvery: 1}
	info := submit(t, hs, spec)
	waitStatus(t, s, info.ID, StatusRunning)
	resp, err := http.Post(hs.URL+"/v1/runs/"+info.ID+"/checkpoint", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("checkpoint-now: status %d", resp.StatusCode)
	}
	st := &store{dir: dir}
	deadline := time.Now().Add(30 * time.Second)
	for {
		has, err := st.HasCheckpoint(info.ID)
		if err != nil {
			t.Fatal(err)
		}
		if has {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("on-demand checkpoint never appeared")
		}
		time.Sleep(time.Millisecond)
	}
	if run, ok := s.Info(info.ID); !ok || run.Status != StatusRunning {
		t.Fatalf("run stopped by on-demand checkpoint: %+v", run)
	}
}

// TestHealth: the liveness endpoint reports scheduler counters.
func TestHealth(t *testing.T) {
	_, hs := newTestServer(t, Options{Workers: 3})
	resp, err := http.Get(hs.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h["status"] != "ok" || h["workers"] != float64(3) {
		t.Fatalf("health: %+v", h)
	}
}

// TestSpecNormalizeDefaults pins the documented defaults.
func TestSpecNormalizeDefaults(t *testing.T) {
	sp := Spec{Seed: 1, N: 100, Rounds: 1000}
	if err := sp.Normalize(250); err != nil {
		t.Fatal(err)
	}
	want := Spec{
		Version: 1, Process: spec.ProcessRBB, Seed: 1, N: 100, M: 100, Rounds: 1000,
		Shards: 1, Init: "one-per-bin", CheckpointEvery: 250, StreamEvery: 3,
		Placement: spec.Placement{Transport: spec.TransportPool, Kernel: "batched"},
	}
	if !reflect.DeepEqual(sp, want) {
		t.Fatalf("normalized:\n got %+v\nwant %+v", sp, want)
	}
	tp := Spec{Process: spec.ProcessTetris, Seed: 1, N: 100, Rounds: 10}
	if err := tp.Normalize(0); err != nil {
		t.Fatal(err)
	}
	if tp.Lambda != 0.75 || tp.M != 0 {
		t.Fatalf("tetris defaults: %+v", tp)
	}
}
