package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"os"
	"reflect"
	"strings"
	"testing"

	"repro/internal/shard/transport/tcp"
	"repro/internal/spec"
)

// startWorkerDaemon runs an in-test `rbb-sim -worker -listen` equivalent
// and returns its address.
func startWorkerDaemon(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go tcp.Serve(ln, io.Discard)
	return ln.Addr().String()
}

// TestMain doubles as the transport worker entry point: runs placed on a
// multi-process transport re-execute the test binary as their workers, and
// MaybeWorker diverts those children into the worker protocol.
func TestMain(m *testing.M) {
	tcp.MaybeWorker()
	os.Exit(m.Run())
}

// TestSubmitPlacement: runs placed on the multi-process transports
// complete with the byte-identical summary of the in-process oracle —
// placement crosses the HTTP boundary without perturbing results.
func TestSubmitPlacement(t *testing.T) {
	s, hs := newTestServer(t, Options{Workers: 1, RunWorkers: 1})
	for i, pl := range []spec.Placement{
		{Transport: spec.TransportTCP, Procs: 2},
		{Transport: spec.TransportTCPMesh, Procs: 2},
	} {
		sp := Spec{Seed: uint64(100 + i), N: 512, Rounds: 150, Shards: 4, Quantiles: []float64{0.5}, Placement: pl}
		info := submit(t, hs, sp)
		done := waitStatus(t, s, info.ID, StatusDone)
		want := refSummary(t, Spec{Seed: sp.Seed, N: sp.N, Rounds: sp.Rounds, Shards: sp.Shards, Quantiles: sp.Quantiles})
		if done.Summary == nil || !reflect.DeepEqual(*done.Summary, want) {
			t.Errorf("placement %+v diverged from the in-process oracle:\n got %+v\nwant %+v", pl, done.Summary, want)
		}
	}
}

// TestSubmitPlacementCacheShared: two submissions differing only in
// placement share one result-cache entry — the key covers the law, not
// where it ran.
func TestSubmitPlacementCacheShared(t *testing.T) {
	s, hs := newTestServer(t, Options{Workers: 1, RunWorkers: 1})
	base := Spec{Seed: 77, N: 256, Rounds: 80, Shards: 2, Quantiles: []float64{0.9}}
	first := submit(t, hs, base)
	ref := waitStatus(t, s, first.ID, StatusDone)

	placed := base
	placed.Placement = spec.Placement{Transport: spec.TransportTCPMesh, Procs: 2}
	second := submit(t, hs, placed)
	got := waitStatus(t, s, second.ID, StatusDone)
	if got.Summary == nil || !reflect.DeepEqual(*got.Summary, *ref.Summary) {
		t.Fatalf("placement changed the cached result:\n got %+v\nwant %+v", got.Summary, ref.Summary)
	}
}

// TestSubmitKernelPlacement: the dense-kernel knob rides the placement
// plane end to end — a scalar-kernel submission runs to the byte-identical
// summary of the in-process oracle, and a second submission differing only
// in kernel shares the first's result-cache entry (the key covers the law,
// not how the dense loop was executed).
func TestSubmitKernelPlacement(t *testing.T) {
	s, hs := newTestServer(t, Options{Workers: 1, RunWorkers: 1})
	base := Spec{Seed: 91, N: 256, Rounds: 80, Shards: 2, Quantiles: []float64{0.9}}
	first := submit(t, hs, base)
	ref := waitStatus(t, s, first.ID, StatusDone)
	want := refSummary(t, base)
	if ref.Summary == nil || !reflect.DeepEqual(*ref.Summary, want) {
		t.Fatalf("batched-default run diverged from the oracle:\n got %+v\nwant %+v", ref.Summary, want)
	}

	placed := base
	placed.Placement = spec.Placement{Kernel: "scalar"}
	second := submit(t, hs, placed)
	got := waitStatus(t, s, second.ID, StatusDone)
	if got.Summary == nil || !reflect.DeepEqual(*got.Summary, *ref.Summary) {
		t.Fatalf("placement.kernel changed the cached result:\n got %+v\nwant %+v", got.Summary, ref.Summary)
	}
	if got.Spec.Placement.Kernel != "scalar" {
		t.Fatalf("kernel did not normalize into the stored spec: %+v", got.Spec.Placement)
	}
}

// TestSubmitLegacyFlatTransport: the pre-placement flat body (top-level
// "transport" field) is no longer a spec field, so the strict decoder
// rejects it with a 400 whose error names the field — a client learns to
// move it under "placement" instead of having it silently dropped.
func TestSubmitLegacyFlatTransport(t *testing.T) {
	_, hs := newTestServer(t, Options{Workers: 1})
	body := `{"seed":5,"n":256,"rounds":60,"shards":2,"quantiles":[0.5],"transport":"spawn"}`
	resp, err := http.Post(hs.URL+"/v1/runs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("flat transport body: status %d, want 400", resp.StatusCode)
	}
	var got struct {
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(got.Error, `"transport"`) {
		t.Fatalf("error %q does not name the flat transport field", got.Error)
	}
}

// TestSubmitUnreachableHosts: a placement naming hosts nobody listens on
// is rejected up front with a structured 400 listing every bad address.
func TestSubmitUnreachableHosts(t *testing.T) {
	_, hs := newTestServer(t, Options{Workers: 1})
	sp := Spec{Seed: 1, N: 64, Rounds: 10, Shards: 4,
		Placement: spec.Placement{Transport: spec.TransportTCP, Hosts: []string{"127.0.0.1:1", "127.0.0.1:2"}}}
	blob, _ := json.Marshal(sp)
	resp, err := http.Post(hs.URL+"/v1/runs", "application/json", bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unreachable hosts: status %d, want 400", resp.StatusCode)
	}
	var body struct {
		Error       string   `json:"error"`
		Unreachable []string `json:"unreachable"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(body.Unreachable, sp.Placement.Hosts) {
		t.Fatalf("unreachable = %v, want %v", body.Unreachable, sp.Placement.Hosts)
	}
	if !strings.Contains(body.Error, "unreachable placement hosts") {
		t.Fatalf("error = %q", body.Error)
	}
}

// TestSubmitReachableHosts: a placement whose hosts answer the probe is
// accepted and the run completes on the named daemons, matching the
// in-process oracle.
func TestSubmitReachableHosts(t *testing.T) {
	addrs := make([]string, 2)
	for i := range addrs {
		addrs[i] = startWorkerDaemon(t)
	}
	s, hs := newTestServer(t, Options{Workers: 1, RunWorkers: 1})
	sp := Spec{Seed: 31, N: 512, Rounds: 120, Shards: 4, Quantiles: []float64{0.5},
		Placement: spec.Placement{Transport: spec.TransportTCPMesh, Hosts: addrs}}
	info := submit(t, hs, sp)
	done := waitStatus(t, s, info.ID, StatusDone)
	want := refSummary(t, Spec{Seed: sp.Seed, N: sp.N, Rounds: sp.Rounds, Shards: sp.Shards, Quantiles: sp.Quantiles})
	if done.Summary == nil || !reflect.DeepEqual(*done.Summary, want) {
		t.Fatalf("hosted run diverged:\n got %+v\nwant %+v", done.Summary, want)
	}
}
