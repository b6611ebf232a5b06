package main

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/shard"
	"repro/internal/shard/transport/tcp"
)

// TestMain doubles as the transport worker entry point: coordinator
// engines spawned by these tests re-execute the test binary, and
// MaybeWorker diverts the children into the worker protocol.
func TestMain(m *testing.M) {
	tcp.MaybeWorker()
	os.Exit(m.Run())
}

// TestRunTransports: the retired -transport names still run — spawn on
// the pool, proc on the loopback TCP mesh — and print the byte-identical
// -json summary of the in-process run.
func TestRunTransports(t *testing.T) {
	args := []string{"-n", "512", "-rounds", "200", "-shards", "4", "-quantiles", "0.5", "-seed", "5", "-json"}
	var inproc strings.Builder
	if err := run(args, &inproc); err != nil {
		t.Fatal(err)
	}
	for _, extra := range [][]string{
		{"-transport", "spawn"},
		{"-transport", "proc", "-procs", "2"},
	} {
		var got strings.Builder
		if err := run(append(append([]string(nil), args...), extra...), &got); err != nil {
			t.Fatalf("%v: %v", extra, err)
		}
		if got.String() != inproc.String() {
			t.Errorf("%v changed the summary:\n%s\n%s", extra, got.String(), inproc.String())
		}
	}
}

// TestRunProcs: a -procs 2 run — the loopback TCP mesh — produces the
// byte-identical -json summary of the in-process run (the CLI face of the
// transport-invariance contract), and the human header names the process
// count and the transport.
func TestRunProcs(t *testing.T) {
	args := []string{"-n", "1024", "-rounds", "150", "-shards", "4", "-quantiles", "0.5", "-seed", "9", "-json"}
	var inproc, multi strings.Builder
	if err := run(args, &inproc); err != nil {
		t.Fatal(err)
	}
	if err := run(append(args, "-procs", "2"), &multi); err != nil {
		t.Fatal(err)
	}
	if inproc.String() != multi.String() {
		t.Fatalf("-procs changed the summary:\n%s\n%s", inproc.String(), multi.String())
	}
	var sb strings.Builder
	if err := run([]string{"-n", "256", "-rounds", "50", "-shards", "4", "-procs", "2", "-seed", "3"}, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "shards=4 procs=2 transport=tcp-mesh") {
		t.Errorf("header missing procs info:\n%s", sb.String())
	}
}

// TestRunTCPTransports: the CLI face of the TCP leg of the
// transport-invariance matrix — -transport tcp and tcp-mesh runs print the
// byte-identical -json summary of the in-process run, and the human header
// names the placement.
func TestRunTCPTransports(t *testing.T) {
	args := []string{"-n", "1024", "-rounds", "120", "-shards", "4", "-quantiles", "0.5", "-seed", "9", "-json"}
	var inproc strings.Builder
	if err := run(args, &inproc); err != nil {
		t.Fatal(err)
	}
	for _, tr := range []string{"tcp", "tcp-mesh"} {
		var got strings.Builder
		if err := run(append(args, "-transport", tr, "-procs", "2"), &got); err != nil {
			t.Fatalf("-transport %s: %v", tr, err)
		}
		if got.String() != inproc.String() {
			t.Errorf("-transport %s changed the summary:\n%s\n%s", tr, got.String(), inproc.String())
		}
	}
	var sb strings.Builder
	if err := run([]string{"-n", "256", "-rounds", "40", "-shards", "4", "-transport", "tcp-mesh", "-seed", "3"}, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "shards=4 procs=2 transport=tcp-mesh") {
		t.Errorf("header missing tcp placement info:\n%s", sb.String())
	}
}

// TestRunTetrisProcs: tetris crosses process boundaries too — its arrival
// rule travels in the worker init frame — so tetris under -procs and over
// the TCP star matches the in-process run byte for byte.
func TestRunTetrisProcs(t *testing.T) {
	args := []string{"-n", "256", "-rounds", "300", "-process", "tetris", "-shards", "4", "-seed", "6", "-json"}
	var inproc strings.Builder
	if err := run(args, &inproc); err != nil {
		t.Fatal(err)
	}
	for _, extra := range [][]string{
		{"-procs", "2"},
		{"-transport", "tcp", "-procs", "2"},
	} {
		var got strings.Builder
		if err := run(append(args, extra...), &got); err != nil {
			t.Fatalf("%v: %v", extra, err)
		}
		if got.String() != inproc.String() {
			t.Errorf("%v changed the tetris summary:\n%s\n%s", extra, got.String(), inproc.String())
		}
	}
}

// TestRunResumeTCPMigration: a checkpoint written by an in-process run
// resumes onto the TCP mesh and finishes byte-identical to the
// uninterrupted run — the CLI face of the cross-machine migration story.
func TestRunResumeTCPMigration(t *testing.T) {
	dir := t.TempDir()
	full := filepath.Join(dir, "full.ckpt")
	half := filepath.Join(dir, "half.ckpt")
	res := filepath.Join(dir, "resumed.ckpt")
	var sb strings.Builder
	common := []string{"-n", "1024", "-shards", "4", "-seed", "8", "-quantiles", "0.9"}
	if err := run(append(common, "-rounds", "200", "-checkpoint", full), &sb); err != nil {
		t.Fatal(err)
	}
	if err := run(append(common, "-rounds", "100", "-checkpoint", half), &sb); err != nil {
		t.Fatal(err)
	}
	var resOut strings.Builder
	if err := run([]string{"-resume", half, "-rounds", "200", "-checkpoint", res,
		"-transport", "tcp-mesh", "-procs", "2"}, &resOut); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(resOut.String(), "resumed at round 100") ||
		!strings.Contains(resOut.String(), "transport=tcp-mesh") {
		t.Errorf("resume header missing migration info:\n%s", resOut.String())
	}
	a, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(res)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("checkpoint migrated to the TCP mesh diverged from the uninterrupted run")
	}
}

func TestRunOriginal(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-n", "128", "-rounds", "500", "-seed", "7"}, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"original process", "max load", "window max load"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRunTetris(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-n", "128", "-rounds", "800", "-process", "tetris", "-init", "all-in-one"}, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "all bins emptied at least once by round") {
		t.Errorf("tetris summary missing:\n%s", sb.String())
	}
}

func TestRunToken(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-n", "64", "-rounds", "300", "-process", "token", "-strategy", "lifo"}, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "min ball progress") {
		t.Errorf("token summary missing:\n%s", sb.String())
	}
}

func TestRunChoices(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-n", "128", "-rounds", "400", "-process", "choices", "-d", "2"}, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "window max load") {
		t.Errorf("choices summary missing:\n%s", sb.String())
	}
}

func TestRunJackson(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-n", "128", "-rounds", "400", "-process", "jackson"}, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "jackson process") {
		t.Errorf("jackson header missing:\n%s", sb.String())
	}
}

func TestRunShardsAndQuantiles(t *testing.T) {
	var sb strings.Builder
	args := []string{"-n", "256", "-rounds", "400", "-shards", "4", "-quantiles", "0.5,0.9", "-seed", "3"}
	if err := run(args, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"shards=4", "max-load quantiles over rounds:", "p50=", "p90="} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	// With an explicit shard count the run is a pure function of the
	// flags: a second invocation must reproduce the output byte for byte.
	var sb2 strings.Builder
	if err := run(args, &sb2); err != nil {
		t.Fatal(err)
	}
	if sb2.String() != out {
		t.Error("same flags, different output — shard determinism broken")
	}
}

// TestRunJSON: -json prints exactly one JSON summary line (no header, no
// table) that decodes to a shard.Summary, identically across repeats, for
// both a plain and a checkpointed run.
func TestRunJSON(t *testing.T) {
	args := []string{"-n", "256", "-rounds", "200", "-shards", "2", "-quantiles", "0.5,0.99", "-seed", "4", "-json"}
	var sb strings.Builder
	if err := run(args, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if strings.Count(out, "\n") != 1 || !strings.HasPrefix(out, "{") {
		t.Fatalf("-json output is not one JSON line:\n%s", out)
	}
	var sum shard.Summary
	if err := json.Unmarshal([]byte(out), &sum); err != nil {
		t.Fatalf("bad JSON %q: %v", out, err)
	}
	if sum.Rounds != 200 || sum.WindowMax < 1 || len(sum.Quantiles) != 2 {
		t.Fatalf("implausible summary: %+v", sum)
	}
	// A checkpointed run with the same law prints the same summary.
	ckpt := filepath.Join(t.TempDir(), "j.ckpt")
	var sb2 strings.Builder
	if err := run(append(args, "-checkpoint", ckpt), &sb2); err != nil {
		t.Fatal(err)
	}
	if sb2.String() != out {
		t.Fatalf("checkpointed -json output differs:\n%s\n%s", sb2.String(), out)
	}
}

func TestRunTetrisSharded(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-n", "128", "-rounds", "800", "-process", "tetris", "-init", "all-in-one", "-shards", "4"}, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "all bins emptied at least once by round") {
		t.Errorf("sharded tetris summary missing:\n%s", sb.String())
	}
}

func TestRunErrors(t *testing.T) {
	var sb strings.Builder
	cases := [][]string{
		{"-n", "0"},
		{"-n", "2147483649"}, // 2^31 + 1: past the int32 bin-index limit
		{"-rounds", "-1"},
		{"-process", "bogus"},
		{"-init", "bogus"},
		{"-process", "token", "-strategy", "bogus"},
		{"-process", "choices", "-d", "0"},
		{"-init", "one-per-bin", "-m", "5", "-n", "8"},
		// Past 2^31 - 1 balls the all-in-one bin's load no longer fits an
		// int32: 2^32 + 5 used to run with 5 balls, 3e9 with a negative load.
		{"-n", "1024", "-m", "4294967301", "-init", "all-in-one", "-rounds", "3", "-shards", "1"},
		{"-n", "1024", "-m", "3000000000", "-init", "all-in-one", "-rounds", "3", "-shards", "1"},
		{"-shards", "-2"},
		{"-quantiles", "1.5"},
		{"-quantiles", "abc"},
		{"-transport", "bogus"},
		{"-procs", "-1"},
		{"-procs", "2", "-process", "token"},
		{"-procs", "2", "-transport", "spawn"},
		{"-hosts", "localhost:1", "-transport", "spawn"},
		{"-hosts", "localhost:1", "-transport", "tcp", "-procs", "2"},
		{"-hosts", "a,b,c", "-transport", "tcp", "-shards", "2"},
		{"-listen", "localhost:0"},
		{"-worker"},
	}
	for _, args := range cases {
		if err := run(args, &sb); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}

func TestReportEvery(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-n", "32", "-rounds", "100", "-report-every", "50"}, &sb); err != nil {
		t.Fatal(err)
	}
	// Header row + round 0 + rounds 50, 100 = 3 data rows.
	lines := strings.Count(sb.String(), "\n")
	if lines < 6 {
		t.Errorf("too few lines:\n%s", sb.String())
	}
}

// TestRunCheckpointResume is the CLI form of the resume-equivalence gate:
// the final checkpoint of a resumed run is byte-identical to that of the
// uninterrupted run, and the whole-run summary lines match.
func TestRunCheckpointResume(t *testing.T) {
	dir := t.TempDir()
	full := filepath.Join(dir, "full.ckpt")
	half := filepath.Join(dir, "half.ckpt")
	res := filepath.Join(dir, "resumed.ckpt")
	var fullOut, halfOut, resOut strings.Builder
	common := []string{"-n", "1024", "-shards", "4", "-seed", "3", "-quantiles", "0.5,0.9"}
	if err := run(append(common, "-rounds", "300", "-checkpoint", full), &fullOut); err != nil {
		t.Fatal(err)
	}
	if err := run(append(common, "-rounds", "150", "-checkpoint", half), &halfOut); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-resume", half, "-rounds", "300", "-checkpoint", res}, &resOut); err != nil {
		t.Fatal(err)
	}
	a, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(res)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("resumed final checkpoint differs from uninterrupted")
	}
	tail := func(s string, k int) string {
		lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
		if len(lines) > k {
			lines = lines[len(lines)-k:]
		}
		return strings.Join(lines, "\n")
	}
	// The last three lines are blank + window max + quantiles.
	if tail(fullOut.String(), 2) != tail(resOut.String(), 2) {
		t.Fatalf("summaries differ:\n%s\nvs\n%s", tail(fullOut.String(), 2), tail(resOut.String(), 2))
	}
	if !strings.Contains(resOut.String(), "resumed at round 150") {
		t.Errorf("resume header missing:\n%s", resOut.String())
	}
}

// TestRunCheckpointEvery: periodic checkpoints leave a final-state file.
func TestRunCheckpointEvery(t *testing.T) {
	path := filepath.Join(t.TempDir(), "p.ckpt")
	var sb strings.Builder
	if err := run([]string{"-n", "256", "-rounds", "100", "-shards", "2",
		"-checkpoint", path, "-checkpoint-every", "30"}, &sb); err != nil {
		t.Fatal(err)
	}
	snap, err := checkpoint.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Engine.Round != 100 {
		t.Fatalf("final checkpoint at round %d, want 100", snap.Engine.Round)
	}
}

func TestRunCheckpointFlagErrors(t *testing.T) {
	dir := t.TempDir()
	ck := filepath.Join(dir, "x.ckpt")
	var sb strings.Builder
	if err := run([]string{"-n", "64", "-rounds", "10", "-checkpoint", ck}, &sb); err != nil {
		t.Fatal(err)
	}
	cases := [][]string{
		{"-checkpoint-every", "5"},                      // needs -checkpoint
		{"-checkpoint", ck, "-checkpoint-every", "-1"},  // negative period
		{"-process", "tetris", "-checkpoint", ck},       // unsupported process
		{"-resume", ck, "-n", "64"},                     // n comes from the file
		{"-resume", ck, "-seed", "1"},                   // seed comes from the file
		{"-resume", ck, "-quantiles", "0.5"},            // quantiles come from the file
		{"-resume", ck, "-rounds", "5"},                 // target before the checkpoint round (10)
		{"-resume", filepath.Join(dir, "missing.ckpt")}, // no such file
	}
	for _, args := range cases {
		if err := run(args, &sb); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}

// TestObservabilityNeutral is the telemetry determinism pin: a run with
// -trace and -metrics enabled produces the byte-identical -json summary and
// final checkpoint of the in-process run without them — in process, on a
// self-spawned tcp-mesh (-procs 2) and on the tcp star — the trace file
// parses as Chrome trace JSON with the expected spans, and the metrics dump
// carries the expected families. A multi-process trace holds the
// coordinator's spans only (release and commit run in the workers): one
// barrier per round.
func TestObservabilityNeutral(t *testing.T) {
	const rounds = 120
	dir := t.TempDir()
	base := []string{"-n", "512", "-rounds", fmt.Sprint(rounds), "-shards", "4", "-seed", "11",
		"-quantiles", "0.5,0.99", "-json", "-checkpoint-every", "40"}
	ckPlain := filepath.Join(dir, "plain.ckpt")
	var plain strings.Builder
	if err := run(append(append([]string(nil), base...), "-checkpoint", ckPlain), &plain); err != nil {
		t.Fatal(err)
	}
	wantCkpt, err := os.ReadFile(ckPlain)
	if err != nil {
		t.Fatal(err)
	}
	for _, leg := range []struct {
		name     string
		args     []string
		spans    []string // each at least once per round
		families []string
	}{
		{"in-process", nil, []string{"release", "commit"},
			[]string{"rbb_phase_seconds", "rbb_rounds_total", "rbb_ckpt_writes_total", "rbb_ckpt_bytes_total"}},
		{"tcp-mesh", []string{"-procs", "2"}, []string{"barrier"},
			[]string{"rbb_coord_barrier_seconds", "rbb_rounds_total", "rbb_ckpt_writes_total", "rbb_ckpt_bytes_total"}},
		{"tcp", []string{"-transport", "tcp", "-procs", "2"}, []string{"barrier"},
			[]string{"rbb_coord_barrier_seconds", "rbb_rounds_total", "rbb_ckpt_writes_total", "rbb_ckpt_bytes_total"}},
	} {
		t.Run(leg.name, func(t *testing.T) {
			ckObs := filepath.Join(dir, leg.name+".ckpt")
			tracePath := filepath.Join(dir, leg.name+".trace.json")
			metricsPath := filepath.Join(dir, leg.name+".prom")
			args := append(append(append([]string(nil), base...), leg.args...),
				"-checkpoint", ckObs, "-trace", tracePath, "-metrics", metricsPath)
			var instrumented strings.Builder
			if err := run(args, &instrumented); err != nil {
				t.Fatal(err)
			}
			if plain.String() != instrumented.String() {
				t.Errorf("-trace/-metrics changed the summary:\n%s\n%s", plain.String(), instrumented.String())
			}
			got, err := os.ReadFile(ckObs)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, wantCkpt) {
				t.Error("-trace/-metrics changed the final checkpoint bytes")
			}

			blob, err := os.ReadFile(tracePath)
			if err != nil {
				t.Fatal(err)
			}
			var doc struct {
				DisplayTimeUnit string `json:"displayTimeUnit"`
				TraceEvents     []struct {
					Name string  `json:"name"`
					Ph   string  `json:"ph"`
					Ts   float64 `json:"ts"`
				} `json:"traceEvents"`
			}
			if err := json.Unmarshal(blob, &doc); err != nil {
				t.Fatalf("trace file is not valid Chrome trace JSON: %v", err)
			}
			names := map[string]int{}
			for _, ev := range doc.TraceEvents {
				names[ev.Name]++
			}
			for _, span := range leg.spans {
				if names[span] < rounds {
					t.Errorf("trace has %d %s spans, want >= %d", names[span], span, rounds)
				}
			}
			if leg.args != nil && names["barrier"] != rounds {
				t.Errorf("trace has %d coordinator barrier spans, want one per round (%d)", names["barrier"], rounds)
			}
			if names["ckpt"] < 1 {
				t.Errorf("trace has no checkpoint spans: %v", names)
			}

			prom, err := os.ReadFile(metricsPath)
			if err != nil {
				t.Fatal(err)
			}
			for _, family := range leg.families {
				if !strings.Contains(string(prom), family) {
					t.Errorf("metrics dump missing family %s", family)
				}
			}
		})
	}
}

// TestRunKernels: -kernel is placement only — the default, an explicit
// batched and a scalar run print byte-identical output; the resolved
// kernel is visible in the metrics dump as an info gauge; an unknown
// kernel is rejected by spec validation with the flag's vocabulary.
func TestRunKernels(t *testing.T) {
	metricsPath := filepath.Join(t.TempDir(), "metrics.prom")
	args := []string{"-n", "512", "-rounds", "200", "-shards", "4", "-seed", "5",
		"-quantiles", "0.5,0.99", "-json"}
	var def, batched, scalar strings.Builder
	if err := run(args, &def); err != nil {
		t.Fatal(err)
	}
	if err := run(append(append([]string(nil), args...), "-kernel", "batched"), &batched); err != nil {
		t.Fatal(err)
	}
	err := run(append(append([]string(nil), args...),
		"-kernel", "scalar", "-metrics", metricsPath), &scalar)
	if err != nil {
		t.Fatal(err)
	}
	if def.String() != batched.String() {
		t.Errorf("-kernel batched changed the summary:\n%s\n%s", def.String(), batched.String())
	}
	if def.String() != scalar.String() {
		t.Errorf("-kernel scalar changed the summary:\n%s\n%s", def.String(), scalar.String())
	}
	prom, err := os.ReadFile(metricsPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(prom), `rbb_kernel_info{kernel="scalar"} 1`) {
		t.Errorf("metrics dump missing the scalar kernel info gauge:\n%s", prom)
	}

	var sb strings.Builder
	err = run([]string{"-n", "64", "-rounds", "1", "-kernel", "simd"}, &sb)
	if err == nil || !strings.Contains(err.Error(), "unknown placement.kernel") {
		t.Errorf("unknown kernel accepted: %v", err)
	}
}

// TestRunProfiles: -cpuprofile and -memprofile write non-empty pprof
// profiles (the gzip-framed protobuf every pprof consumer expects) and
// never perturb the summary; an uncreatable profile path fails loudly
// before the run starts.
func TestRunProfiles(t *testing.T) {
	dir := t.TempDir()
	cpuPath := filepath.Join(dir, "cpu.pprof")
	memPath := filepath.Join(dir, "mem.pprof")
	args := []string{"-n", "512", "-rounds", "150", "-shards", "4", "-seed", "7", "-json"}
	var plain, profiled strings.Builder
	if err := run(args, &plain); err != nil {
		t.Fatal(err)
	}
	err := run(append(append([]string(nil), args...),
		"-cpuprofile", cpuPath, "-memprofile", memPath), &profiled)
	if err != nil {
		t.Fatal(err)
	}
	if plain.String() != profiled.String() {
		t.Errorf("profiling changed the summary:\n%s\n%s", plain.String(), profiled.String())
	}
	for _, p := range []string{cpuPath, memPath} {
		f, err := os.Open(p)
		if err != nil {
			t.Fatal(err)
		}
		zr, err := gzip.NewReader(f)
		if err != nil {
			t.Fatalf("%s is not a gzip-framed pprof profile: %v", p, err)
		}
		raw, err := io.ReadAll(zr)
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		if len(raw) == 0 {
			t.Errorf("%s: profile body is empty", p)
		}
		f.Close()
	}

	var sb strings.Builder
	bad := filepath.Join(dir, "no-such-dir", "cpu.pprof")
	if err := run(append(append([]string(nil), args...), "-cpuprofile", bad), &sb); err == nil {
		t.Error("uncreatable -cpuprofile path accepted")
	}
}

// TestVersionFlag: -version prints build info and runs nothing.
func TestVersionFlag(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-version"}, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.HasPrefix(out, "rbb-sim ") || !strings.Contains(out, "go1.") {
		t.Errorf("version output %q", out)
	}
}
