package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/shard/transport/tcp"
)

// TestMain lets the test binary serve as a self-spawned tcp-mesh worker,
// as the benchmark binary does.
func TestMain(m *testing.M) {
	tcp.MaybeWorker()
	os.Exit(m.Run())
}

type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(blob))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bf); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return bf
}

// TestCatalogueMatchesBenchmarkFile pins BENCHMARK.json to the metrics and
// workloads the program defines.
func TestCatalogueMatchesBenchmarkFile(t *testing.T) {
	bf := readBenchmarkFile(t)
	for _, w := range bf.Workloads {
		if !slices.Contains(workloads, w.Name) {
			t.Errorf("BENCHMARK.json workload %s is not a workload of the program (%v)", w.Name, workloads)
		}
	}
	want := map[string]metricDef{}
	for _, m := range catalogue {
		want[m.name] = m
	}
	seen := 0
	for _, m := range bf.EndToEnd {
		if d, ok := want[m.Name]; !ok || !d.endToEnd || d.unit != m.Unit {
			t.Errorf("end_to_end %s (%s) is not an end-to-end metric of the program", m.Name, m.Unit)
		}
		seen++
	}
	for _, m := range bf.PerLayer {
		if d, ok := want[m.Name]; !ok || d.endToEnd || d.unit != m.Unit {
			t.Errorf("per_layer %s (%s) is not a per-layer metric of the program", m.Name, m.Unit)
		}
		seen++
	}
	if seen != len(catalogue) {
		t.Errorf("BENCHMARK.json names %d metrics, the program %d", seen, len(catalogue))
	}
}

// printed is one "metric" line of a run's output.
type printed struct {
	unit    string
	samples int
}

// TestSelfTest runs every workload at tiny size, untraced and traced, and
// asserts that each run passes its output checks, prints every metric of
// its mode with its unit, ends with a well-formed result line, and that
// every metric BENCHMARK.json names is measured (non-zero samples) on at
// least one of the workloads it lists — and every end-to-end metric on all
// workloads.
func TestSelfTest(t *testing.T) {
	if testing.Short() {
		t.Skip("runs all four workloads")
	}
	bf := readBenchmarkFile(t)
	out := t.TempDir()
	serveBin := filepath.Join(out, "rbb-serve")
	if b, err := exec.Command("go", "build", "-o", serveBin, "repro/cmd/rbb-serve").CombinedOutput(); err != nil {
		t.Fatalf("building rbb-serve: %v\n%s", err, b)
	}
	gated := map[string]bool{}
	for _, w := range bf.Workloads {
		gated[w.Name] = true
	}
	measured := map[string]bool{}
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			cfg := options{workload: w, seed: 7, seconds: 1, trace: trace, tiny: true, out: out, serveBin: serveBin}
			var stdout bytes.Buffer
			res, err := run(cfg, &stdout)
			if err != nil {
				t.Fatalf("%s trace=%v: %v\n%s", w, trace, err, stdout.String())
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v failed=%d attempted=%d\n%s", w, trace, res.Correct, res.Failed, res.Attempted, stdout.String())
			}
			lines := parseMetricLines(t, stdout.String())
			check := func(name, unit string, endToEnd bool) {
				p, ok := lines[name]
				if !ok || p.unit != unit {
					t.Errorf("%s trace=%v: metric %s printed as %+v, want unit %s", w, trace, name, p, unit)
				}
				if mo, ok := res.Metrics[name]; !ok || mo.Unit != unit {
					t.Errorf("%s trace=%v: result line lacks %s (%s)", w, trace, name, unit)
				}
				if p.samples > 0 && gated[w] {
					measured[name] = true
				} else if p.samples == 0 && endToEnd {
					t.Errorf("%s: end-to-end metric %s has no samples", w, name)
				}
			}
			if trace {
				for _, m := range bf.PerLayer {
					check(m.Name, m.Unit, false)
				}
				if len(res.Metrics) != len(bf.PerLayer) {
					t.Errorf("%s traced: %d metrics in the result line, want %d", w, len(res.Metrics), len(bf.PerLayer))
				}
			} else {
				for _, m := range bf.EndToEnd {
					check(m.Name, m.Unit, true)
					if v := res.Metrics[m.Name].Value; !(v > 0) {
						t.Errorf("%s: end-to-end metric %s = %v", w, m.Name, v)
					}
				}
				if len(res.Metrics) != len(bf.EndToEnd) {
					t.Errorf("%s: %d metrics in the result line, want %d", w, len(res.Metrics), len(bf.EndToEnd))
				}
			}
		}
	}
	for _, m := range bf.PerLayer {
		if !measured[m.Name] {
			t.Errorf("per-layer metric %s measured on no workload BENCHMARK.json lists", m.Name)
		}
	}
}

func parseMetricLines(t *testing.T, out string) map[string]printed {
	t.Helper()
	got := map[string]printed{}
	sc := bufio.NewScanner(strings.NewReader(out))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) != 5 || f[0] != "metric" {
			continue
		}
		n, err := strconv.Atoi(strings.TrimPrefix(f[4], "samples="))
		if err != nil {
			t.Fatalf("bad metric line %q", sc.Text())
		}
		got[f[1]] = printed{unit: f[3], samples: n}
	}
	return got
}

// TestResultLineKeys pins the result line's shape.
func TestResultLineKeys(t *testing.T) {
	blob, err := json.Marshal(&result{Correct: true, Attempted: 1, Metrics: map[string]metricOut{"setup_s": {0.5, "s"}}})
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]json.RawMessage
	if err := json.Unmarshal(blob, &m); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"correct", "attempted", "failed", "metrics"} {
		if _, ok := m[k]; !ok {
			t.Errorf("result line lacks %q: %s", k, blob)
		}
	}
	if len(m) != 4 {
		t.Errorf("result line has %d keys: %s", len(m), blob)
	}
}

// TestRefusesBareDirectory runs the command in a directory holding only
// BENCHMARK.json and the benchmark's files: it must fail without printing
// a result line.
func TestRefusesBareDirectory(t *testing.T) {
	dir := t.TempDir()
	bf := readBenchmarkFile(t)
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "BENCHMARK.json"), blob, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.CopyFS(filepath.Join(dir, "ladder"), os.DirFS(".")); err != nil {
		t.Fatal(err)
	}
	args := append(bf.Command[1:], "--workload", "stationary", "--seed", "1", "--seconds", "1", "--trace", "0")
	cmd := exec.Command(bf.Command[0], args...)
	cmd.Dir = dir
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	err = cmd.Run()
	if err == nil {
		t.Fatalf("benchmark succeeded in a bare directory:\n%s", stdout.String())
	}
	if strings.Contains(stdout.String(), `"correct"`) {
		t.Errorf("benchmark printed a result in a bare directory:\n%s", stdout.String())
	}
}
