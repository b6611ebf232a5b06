package spec

import (
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"
)

// TestJSONRoundTrip: a normalized spec survives marshal → unmarshal →
// normalize unchanged — the property that lets rbb-serve persist specs in
// its manifest and lets checkpointed runs re-submit themselves.
func TestJSONRoundTrip(t *testing.T) {
	sp := RunSpec{
		Process: ProcessTetris, Seed: 7, N: 4096, Rounds: 500, Shards: 8,
		Init: "all-in-one", Lambda: 0.5, Quantiles: []float64{0.5, 0.99},
		LoadWidth: 16,
		Placement: Placement{Transport: TransportTCPMesh, Procs: 4, Workers: 2},
	}
	if err := sp.Normalize(100); err != nil {
		t.Fatal(err)
	}
	blob, err := json.Marshal(sp)
	if err != nil {
		t.Fatal(err)
	}
	var back RunSpec
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sp, back) {
		t.Fatalf("round trip changed the spec:\n got %+v\nwant %+v", back, sp)
	}
	if err := back.Normalize(100); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sp, back) {
		t.Fatalf("re-normalizing a normalized spec changed it:\n got %+v\nwant %+v", back, sp)
	}
}

// TestCompatShim: stored specs naming the retired placements keep
// running. The one resolver maps "spawn" onto the pool and "proc" onto the
// loopback TCP mesh, both through Normalize and through transport() on an
// un-normalized spec — the path rbb-serve's restore takes, since it
// re-queues persisted specs without re-normalizing them.
func TestCompatShim(t *testing.T) {
	for _, tc := range []struct {
		stored string
		want   Placement
	}{
		{"", Placement{Transport: TransportPool, Kernel: "batched"}},
		{"spawn", Placement{Transport: TransportPool, Kernel: "batched"}},
		{"proc", Placement{Transport: TransportTCPMesh, Procs: 2, Kernel: "batched"}},
		{TransportTCP, Placement{Transport: TransportTCP, Procs: 2, Kernel: "batched"}},
	} {
		raw := RunSpec{N: 64, Rounds: 1, Shards: 4, Placement: Placement{Transport: tc.stored}}
		if got := raw.transport(); got != tc.want.Transport {
			t.Errorf("transport() of stored %q = %q, want %q", tc.stored, got, tc.want.Transport)
		}
		if err := raw.Normalize(0); err != nil {
			t.Fatalf("stored %q: %v", tc.stored, err)
		}
		if !reflect.DeepEqual(raw.Placement, tc.want) {
			t.Errorf("stored %q normalized to %+v, want %+v", tc.stored, raw.Placement, tc.want)
		}
	}
}

// TestVersioning: future schema versions are rejected, past ones upgraded.
func TestVersioning(t *testing.T) {
	sp := RunSpec{Version: Version + 1, N: 8, Rounds: 1}
	if err := sp.Normalize(0); err == nil {
		t.Fatal("future version accepted")
	}
	sp = RunSpec{N: 8, Rounds: 1}
	if err := sp.Normalize(0); err != nil {
		t.Fatal(err)
	}
	if sp.Version != Version {
		t.Fatalf("normalize stamped version %d, want %d", sp.Version, Version)
	}
}

// TestResultKeyExcludesPlacement: the cache key covers exactly the
// result-determining fields — two specs differing only in placement,
// checkpoint policy, stream cadence or storage width share a key, and
// every law field perturbs it.
func TestResultKeyExcludesPlacement(t *testing.T) {
	base := func() RunSpec {
		sp := RunSpec{Seed: 3, N: 1024, M: 512, Rounds: 100, Shards: 4, Quantiles: []float64{0.9, 0.5}}
		if err := sp.Normalize(10); err != nil {
			t.Fatal(err)
		}
		return sp
	}
	ref := base().ResultKey()

	same := base()
	same.Placement = Placement{Transport: TransportTCPMesh, Procs: 4, Hosts: nil, Workers: 3, Kernel: "scalar"}
	same.CheckpointEvery, same.StreamEvery, same.LoadWidth = 77, 5, 32
	if err := same.NormalizePlacement(); err != nil {
		t.Fatal(err)
	}
	if same.ResultKey() != ref {
		t.Fatalf("placement/policy fields leaked into the result key:\n %q\n %q", same.ResultKey(), ref)
	}
	// The kernel knob alone is placement-plane too: batched and scalar
	// specs share one result.
	kern := base()
	kern.Placement.Kernel = "scalar"
	if err := kern.NormalizePlacement(); err != nil {
		t.Fatal(err)
	}
	if kern.ResultKey() != ref {
		t.Fatal("placement.kernel leaked into the result key")
	}
	// Quantile order is canonicalized.
	reordered := base()
	reordered.Quantiles = []float64{0.5, 0.9}
	if reordered.ResultKey() != ref {
		t.Fatal("quantile order perturbed the result key")
	}

	for name, mut := range map[string]func(*RunSpec){
		"seed":   func(sp *RunSpec) { sp.Seed = 4 },
		"n":      func(sp *RunSpec) { sp.N = 2048 },
		"m":      func(sp *RunSpec) { sp.M = 513 },
		"rounds": func(sp *RunSpec) { sp.Rounds = 101 },
		"shards": func(sp *RunSpec) { sp.Shards = 8 },
		"init":   func(sp *RunSpec) { sp.Init = "uniform" },
	} {
		sp := base()
		mut(&sp)
		if sp.ResultKey() == ref {
			t.Errorf("%s did not perturb the result key", name)
		}
	}
}

// TestNormalizePlacement covers the placement validation matrix for both
// frontends: the serve path (explicit shards) and the CLI path (shards 0 =
// GOMAXPROCS, where shard-count checks defer to the engines' clamping).
func TestNormalizePlacement(t *testing.T) {
	cases := []struct {
		name    string
		in      RunSpec
		wantErr string
		want    Placement
	}{
		{name: "default pool", in: RunSpec{}, want: Placement{Transport: TransportPool, Kernel: "batched"}},
		{name: "unknown kind", in: RunSpec{Placement: Placement{Transport: "carrier-pigeon"}}, wantErr: "unknown placement.transport"},
		{name: "unknown kernel", in: RunSpec{Placement: Placement{Kernel: "vectorized"}}, wantErr: "unknown placement.kernel"},
		{name: "scalar kernel", in: RunSpec{Placement: Placement{Kernel: "scalar"}}, want: Placement{Transport: TransportPool, Kernel: "scalar"}},
		{name: "procs on pool", in: RunSpec{Placement: Placement{Transport: TransportPool, Procs: 2}}, wantErr: "multi-process transport"},
		{name: "hosts on spawn", in: RunSpec{Placement: Placement{Transport: "spawn", Hosts: []string{"a"}}}, wantErr: "placement.hosts needs a tcp transport"},
		{name: "hosts on proc", in: RunSpec{Placement: Placement{Transport: "proc", Hosts: []string{"a"}}},
			want: Placement{Transport: TransportTCPMesh, Procs: 1, Hosts: []string{"a"}, Kernel: "batched"}},
		{name: "proc defaults procs", in: RunSpec{Placement: Placement{Transport: "proc"}}, want: Placement{Transport: TransportTCPMesh, Procs: 2, Kernel: "batched"}},
		{name: "hosts imply procs", in: RunSpec{Placement: Placement{Transport: TransportTCP, Hosts: []string{"a:1", "b:1"}}},
			want: Placement{Transport: TransportTCP, Procs: 2, Hosts: []string{"a:1", "b:1"}, Kernel: "batched"}},
		{name: "procs contradict hosts", in: RunSpec{Placement: Placement{Transport: TransportTCP, Procs: 3, Hosts: []string{"a:1"}}}, wantErr: "contradicts"},
		{name: "hosts exceed shards", in: RunSpec{Shards: 2, Placement: Placement{Transport: TransportTCPMesh, Hosts: []string{"a", "b", "c"}}}, wantErr: "hosts <= shards"},
		{name: "procs exceed shards", in: RunSpec{Shards: 2, Placement: Placement{Transport: TransportTCPMesh, Procs: 4}}, wantErr: "exceeds"},
		{name: "cli shards 0 skips shard checks", in: RunSpec{Placement: Placement{Transport: TransportTCPMesh, Procs: 64}},
			want: Placement{Transport: TransportTCPMesh, Procs: 64, Kernel: "batched"}},
		{name: "negative procs", in: RunSpec{Placement: Placement{Transport: TransportTCPMesh, Procs: -1}}, wantErr: "procs >= 0"},
		{name: "negative workers", in: RunSpec{Placement: Placement{Workers: -1}}, wantErr: "workers >= 0"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.in.NormalizePlacement()
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("err = %v, want substring %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(tc.in.Placement, tc.want) {
				t.Fatalf("placement = %+v, want %+v", tc.in.Placement, tc.want)
			}
		})
	}
}

// TestNormalizeBinLimit: n is capped at 2^31 — bins are int32 indices
// drawn by rng.Source.Fill32n — with an error naming the limit, and the
// cap itself is a valid spec. Validation allocates nothing per bin.
func TestNormalizeBinLimit(t *testing.T) {
	at := RunSpec{N: 1 << 31, Rounds: 1}
	if err := at.Normalize(0); err != nil {
		t.Errorf("n = 2^31 rejected: %v", err)
	}
	over := RunSpec{N: 1<<31 + 1, Rounds: 1}
	if err := over.Normalize(0); err == nil || !strings.Contains(err.Error(), "2147483648") {
		t.Errorf("n = 2^31+1: %v, want an error naming the 2147483648-bin limit", err)
	}
}

// TestNormalizeBallLimit: relaunch conserves its balls and all of them may
// gather in one int32 bin, so a given m above 2^31 - 1 is refused at
// submit, naming the limit; m at the limit is accepted.
func TestNormalizeBallLimit(t *testing.T) {
	at := RunSpec{N: 8, M: math.MaxInt32, Rounds: 1}
	if err := at.Normalize(0); err != nil {
		t.Errorf("m = 2^31-1 rejected: %v", err)
	}
	for _, m := range []int{math.MaxInt32 + 1, 3000000000, 4294967301} {
		over := RunSpec{N: 1024, M: m, Rounds: 1, Init: "all-in-one"}
		if err := over.Normalize(0); err == nil || !strings.Contains(err.Error(), "2147483647") {
			t.Errorf("m = %d: %v, want an error naming the 2147483647-ball limit", m, err)
		}
	}
}

// TestNormalizeErrors covers the law-plane validation.
func TestNormalizeErrors(t *testing.T) {
	cases := []struct {
		name string
		in   RunSpec
	}{
		{"bad process", RunSpec{Process: "bogus", N: 8, Rounds: 1}},
		{"n zero", RunSpec{Rounds: 1}},
		{"rounds zero", RunSpec{N: 8}},
		{"lambda on rbb", RunSpec{N: 8, Rounds: 1, Lambda: 0.5}},
		{"m on tetris", RunSpec{Process: ProcessTetris, N: 8, M: 4, Rounds: 1}},
		{"lambda out of range", RunSpec{Process: ProcessTetris, N: 8, Rounds: 1, Lambda: 1.5}},
		{"shards over n", RunSpec{N: 4, Rounds: 1, Shards: 8}},
		{"bad init", RunSpec{N: 8, Rounds: 1, Init: "bogus"}},
		{"bad quantile", RunSpec{N: 8, Rounds: 1, Quantiles: []float64{1.5}}},
		{"bad load width", RunSpec{N: 8, Rounds: 1, LoadWidth: 7}},
		{"negative checkpoint every", RunSpec{N: 8, Rounds: 1, CheckpointEvery: -1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.in.Normalize(0); err == nil {
				t.Fatalf("spec %+v accepted", tc.in)
			}
		})
	}
}
