package shard

import (
	"strings"
	"testing"

	"repro/internal/config"
	"repro/internal/rng"
)

// TestSnapshotResumeExactTrajectory is the package-level statement of the
// checkpoint determinism contract: a process saved at round t and restored
// into a fresh engine produces loads and statistics byte-identical to the
// uninterrupted run at every subsequent round, for S = 1 and S > 1 and for
// both canonical starts.
func TestSnapshotResumeExactTrajectory(t *testing.T) {
	const (
		n    = 257 // deliberately not a power of two
		seed = 13
		cut  = 150
		tail = 200
	)
	for _, shards := range []int{1, 3, 8} {
		for name, loads := range map[string][]int32{
			"one-per-bin": config.OnePerBin(n),
			"all-in-one":  config.AllInOne(n, n),
		} {
			full, err := NewProcess(loads, seed, Options{Shards: shards})
			if err != nil {
				t.Fatal(err)
			}
			half, err := NewProcess(loads, seed, Options{Shards: shards})
			if err != nil {
				t.Fatal(err)
			}
			full.Run(cut)
			half.Run(cut)
			snap, err := half.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			resumed, err := RestoreProcess(snap, Options{})
			if err != nil {
				t.Fatalf("S=%d %s: %v", shards, name, err)
			}
			if resumed.Round() != cut || resumed.Balls() != half.Balls() {
				t.Fatalf("S=%d %s: restored round=%d balls=%d", shards, name, resumed.Round(), resumed.Balls())
			}
			if err := resumed.CheckInvariants(); err != nil {
				t.Fatalf("S=%d %s: %v", shards, name, err)
			}
			for r := 0; r < tail; r++ {
				full.Step()
				resumed.Step()
				if full.MaxLoad() != resumed.MaxLoad() || full.EmptyBins() != resumed.EmptyBins() {
					t.Fatalf("S=%d %s: stats diverge at round %d", shards, name, full.Round())
				}
			}
			got, want := resumed.LoadsCopy(), full.LoadsCopy()
			for u := range got {
				if got[u] != want[u] {
					t.Fatalf("S=%d %s: bin %d: resumed %d vs uninterrupted %d", shards, name, u, got[u], want[u])
				}
			}
		}
	}
}

// TestSnapshotResumeSingleShardMatchesSequential pins S=1 parity across a
// checkpoint boundary: the resumed single-shard process still reproduces
// the sequential process driven by rng.NewStream(seed, 0) exactly.
func TestSnapshotResumeSingleShardMatchesSequential(t *testing.T) {
	const (
		n    = 129
		seed = 7
		cut  = 120
		tail = 280
	)
	loads := config.AllInOne(n, n)
	p, err := NewProcess(loads, seed, Options{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := NewSequential(loads, rng.NewStream(seed, 0), ArrivalRule{})
	if err != nil {
		t.Fatal(err)
	}
	p.Run(cut)
	ref.Run(cut)
	snap, err := p.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := RestoreProcess(snap, Options{})
	if err != nil {
		t.Fatal(err)
	}
	resumed.Run(tail)
	ref.Run(tail)
	got, want := resumed.LoadsCopy(), ref.LoadsCopy()
	for u := range got {
		if got[u] != want[u] {
			t.Fatalf("bin %d: resumed %d vs sequential %d", u, got[u], want[u])
		}
	}
}

// TestSnapshotWorkerInvariance: the restored trajectory does not depend on
// the restored engine's worker count.
func TestSnapshotWorkerInvariance(t *testing.T) {
	const (
		n      = 200
		seed   = 3
		shards = 4
	)
	p, err := NewProcess(config.OnePerBin(n), seed, Options{Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	p.Run(80)
	snap, err := p.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	var ref []int32
	for _, workers := range []int{1, 2, 4} {
		r, err := RestoreProcess(snap, Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		r.Run(120)
		loads := r.LoadsCopy()
		if ref == nil {
			ref = loads
			continue
		}
		for u := range loads {
			if loads[u] != ref[u] {
				t.Fatalf("workers=%d: bin %d diverges", workers, u)
			}
		}
	}
}

// TestRestoreProcessRejectsCorruptSnapshots: every structural violation a
// decoder could let through is still caught at restore.
func TestRestoreProcessRejectsCorruptSnapshots(t *testing.T) {
	p, err := NewProcess(config.OnePerBin(64), 1, Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	p.Run(10)
	fresh := func() *EngineSnapshot {
		snap, err := p.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		return snap
	}
	if _, err := RestoreProcess(nil, Options{}); err == nil {
		t.Error("nil snapshot accepted")
	}
	snap := fresh()
	snap.Round = -1
	if _, err := RestoreProcess(snap, Options{}); err == nil {
		t.Error("negative round accepted")
	}
	snap = fresh()
	snap.Shards[1].RNG = [4]uint64{}
	if _, err := RestoreProcess(snap, Options{}); err == nil {
		t.Error("all-zero rng state accepted")
	}
	snap = fresh()
	snap.Shards[2].Work[0] ^= 1 // flip a worklist bit out from under the loads
	if _, err := RestoreProcess(snap, Options{}); err == nil {
		t.Error("inconsistent worklist accepted")
	}
	snap = fresh()
	snap.Shards[0].Loads = snap.Shards[0].Loads[:len(snap.Shards[0].Loads)-1]
	if _, err := RestoreProcess(snap, Options{}); err == nil {
		t.Error("short shard accepted")
	}
	snap = fresh()
	snap.Shards[3].Loads[0] = -2
	if _, err := RestoreProcess(snap, Options{}); err == nil {
		t.Error("negative load accepted")
	}
	// And an untouched snapshot still restores.
	if _, err := RestoreProcess(fresh(), Options{}); err != nil {
		t.Errorf("clean snapshot rejected: %v", err)
	}
}

// TestRestoreProcessRefusesBatchRule: a snapshot records no rule and
// resumes only relaunch, so RestoreProcess refuses any other rule in its
// options, naming it, rather than step a batch rule from a relaunch state.
func TestRestoreProcessRefusesBatchRule(t *testing.T) {
	p, err := NewProcess(config.OnePerBin(64), 1, Options{Shards: 2, Rule: tetrisRule})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	p.Run(3)
	snap, err := p.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	for _, rule := range []ArrivalRule{tetrisRule, {Kind: ArrivalBinomial, Lambda: 0.5}, {Lambda: 0.5}} {
		if _, err := RestoreProcess(snap, Options{Rule: rule}); err == nil || !strings.Contains(err.Error(), rule.String()) {
			t.Errorf("rule %v: RestoreProcess gave %v, want a refusal naming the rule", rule, err)
		}
	}
	q, err := RestoreProcess(snap, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	if q.Rule() != (ArrivalRule{}) || q.Round() != 3 {
		t.Fatalf("restored %v at round %d, want relaunch at round 3", q.Rule(), q.Round())
	}
}

// TestPipelineSnapshotRoundTrip: a pipeline restored mid-stream continues
// to identical summaries.
func TestPipelineSnapshotRoundTrip(t *testing.T) {
	p, err := NewProcess(config.AllInOne(128, 128), 5, Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	full, err := NewPipeline([]float64{0.5, 0.9})
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 100; r++ {
		p.Step()
		full.Observe(p)
	}
	resumed, err := RestorePipeline(full.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 150; r++ {
		p.Step()
		full.Observe(p)
		resumed.Observe(p)
	}
	if full.WindowMax() != resumed.WindowMax() ||
		full.empty.Min() != resumed.empty.Min() ||
		full.EmptyMean() != resumed.EmptyMean() ||
		full.rounds != resumed.rounds ||
		full.String() != resumed.String() {
		t.Fatalf("pipelines diverge: %q vs %q", full, resumed)
	}
	if _, err := RestorePipeline(nil); err == nil {
		t.Error("nil pipeline snapshot accepted")
	}
	bad := full.Snapshot()
	bad.Rounds = -1
	if _, err := RestorePipeline(bad); err == nil {
		t.Error("negative rounds accepted")
	}
	bad = full.Snapshot()
	bad.Sketches[0].P = 2
	if _, err := RestorePipeline(bad); err == nil {
		t.Error("out-of-range quantile accepted")
	}
}
