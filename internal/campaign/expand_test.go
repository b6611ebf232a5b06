package campaign

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/dist"
	"repro/internal/rng"
	"repro/internal/spec"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite the expansion golden fixture")

// zipfLambdas derives a λ axis from the Zipf sampler: deterministic,
// platform-independent values in (0, 1) with heavy-tailed spacing —
// exactly the axis shape the ROADMAP's "heavy-tailed Zipf arrival skew"
// scenario wants. Distinct samples keep the axis strictly increasing.
func zipfLambdas(count int) []float64 {
	z, err := dist.NewZipf(64, 1.2)
	if err != nil {
		panic(err)
	}
	r := rng.New(7)
	seen := map[int]bool{}
	var ranks []int
	for len(ranks) < count {
		k := z.Sample(r)
		if !seen[k] {
			seen[k] = true
			ranks = append(ranks, k)
		}
	}
	out := make([]float64, count)
	for i, k := range ranks {
		out[i] = 1 - 1/float64(k+3)
	}
	return out
}

// goldenSpec is the fixture campaign: a multiplicative n grid, an
// explicit Zipf-derived λ list, a process axis and seed replicas — every
// axis kind in one expansion.
func goldenSpec() CampaignSpec {
	return CampaignSpec{
		Name: "golden",
		Base: spec.RunSpec{Seed: 11, Rounds: 16, Shards: 2, Quantiles: []float64{0.5, 0.99}},
		Axes: []Axis{
			{Field: FieldProcess, Strings: []string{spec.ProcessTetris, spec.ProcessBatches}},
			{Field: FieldN, From: 64, To: 256, Factor: 2},
			{Field: FieldLambda, Values: zipfLambdas(3)},
		},
		Replicas: 2,
	}
}

// goldenPoint is the fixture's per-point record: everything about a
// point's identity that must never drift.
type goldenPoint struct {
	Index     int      `json:"index"`
	ID        string   `json:"id"`
	Coords    []string `json:"coords"`
	ResultKey string   `json:"result_key"`
}

type goldenPlan struct {
	CampaignID string        `json:"campaign_id"`
	AxisNames  []string      `json:"axis_names"`
	Points     []goldenPoint `json:"points"`
}

// TestExpandGolden pins the whole expansion — point order, IDs, coords,
// result keys and the campaign ID — against a committed fixture: the same
// CampaignSpec must expand identically across runs, platforms and future
// code changes (campaign IDs key resume directories forever).
func TestExpandGolden(t *testing.T) {
	cs := goldenSpec()
	plan, err := cs.Expand()
	if err != nil {
		t.Fatal(err)
	}
	got := goldenPlan{CampaignID: plan.ID, AxisNames: plan.AxisNames}
	for _, pt := range plan.Points {
		got.Points = append(got.Points, goldenPoint{
			Index: pt.Index, ID: pt.ID, Coords: pt.Coords, ResultKey: pt.Spec.ResultKey(),
		})
	}
	path := filepath.Join("testdata", "expand_golden.json")
	if *updateGolden {
		blob, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(blob, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update-golden to create): %v", err)
	}
	var want goldenPlan
	if err := json.Unmarshal(blob, &want); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("expansion drifted from golden fixture:\ngot %+v\nwant %+v", got, want)
	}
}

// TestExpandDeterministic re-expands the same spec and demands identical
// plans — no map iteration, clock or allocation order may leak in.
func TestExpandDeterministic(t *testing.T) {
	a := goldenSpec()
	b := goldenSpec()
	pa, err := a.Expand()
	if err != nil {
		t.Fatal(err)
	}
	pb, err := b.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(pa, pb) {
		t.Error("two expansions of the same spec differ")
	}
	// And a second expansion of an already-normalized spec (grids
	// materialized) is still identical: Normalize is idempotent.
	pc, err := a.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(pa, pc) {
		t.Error("re-expanding a normalized spec differs")
	}
}

// TestExpandShape checks the structural contract: Cartesian order with
// the last axis fastest, replicas innermost offsetting the seed.
func TestExpandShape(t *testing.T) {
	cs := CampaignSpec{
		Base: spec.RunSpec{Seed: 100, Rounds: 4},
		Axes: []Axis{
			{Field: FieldN, Values: []float64{8, 16}},
			{Field: FieldSeed, Values: []float64{1, 2, 3}},
		},
		Replicas: 2,
	}
	plan, err := cs.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Points) != 2*3*2 {
		t.Fatalf("points = %d, want 12", len(plan.Points))
	}
	if !reflect.DeepEqual(plan.AxisNames, []string{"n", "seed", "replica"}) {
		t.Fatalf("axis names = %v", plan.AxisNames)
	}
	// First four points: n=8 with seed 1 (replicas 0,1) then seed 2.
	wantSeeds := []uint64{1, 2, 2, 3}
	wantN := []int{8, 8, 8, 8}
	for i := 0; i < 4; i++ {
		pt := plan.Points[i]
		if pt.Spec.N != wantN[i] || pt.Spec.Seed != wantSeeds[i] {
			t.Errorf("point %d = (n %d, seed %d), want (n %d, seed %d)",
				i, pt.Spec.N, pt.Spec.Seed, wantN[i], wantSeeds[i])
		}
		if pt.Index != i {
			t.Errorf("point %d carries index %d", i, pt.Index)
		}
	}
	// Point 6 starts the n=16 half.
	if plan.Points[6].Spec.N != 16 {
		t.Errorf("point 6 n = %d, want 16", plan.Points[6].Spec.N)
	}
	// IDs are unique even with overlapping laws (seed axis + replicas
	// collide: seed 2 appears twice in the first block).
	seen := map[string]bool{}
	for _, pt := range plan.Points {
		if seen[pt.ID] {
			t.Errorf("duplicate point id %s", pt.ID)
		}
		seen[pt.ID] = true
	}
}

// TestExpandErrors exercises the validation surface.
func TestExpandErrors(t *testing.T) {
	base := spec.RunSpec{Seed: 1, Rounds: 4, N: 8}
	cases := []struct {
		name string
		cs   CampaignSpec
		want string
	}{
		{"unknown field", CampaignSpec{Base: base, Axes: []Axis{{Field: "rounds", Values: []float64{1}}}}, "law-plane"},
		{"placement axis", CampaignSpec{Base: base, Axes: []Axis{{Field: "workers", Values: []float64{1}}}}, "law-plane"},
		{"duplicate axis", CampaignSpec{Base: base, Axes: []Axis{
			{Field: FieldN, Values: []float64{8}}, {Field: FieldN, Values: []float64{16}},
		}}, "duplicate axis"},
		{"values and grid", CampaignSpec{Base: base, Axes: []Axis{
			{Field: FieldN, Values: []float64{8}, From: 1, To: 2, Step: 1},
		}}, "mutually exclusive"},
		{"step and factor", CampaignSpec{Base: base, Axes: []Axis{
			{Field: FieldN, From: 1, To: 8, Step: 1, Factor: 2},
		}}, "mutually exclusive"},
		{"empty axis", CampaignSpec{Base: base, Axes: []Axis{{Field: FieldN}}}, "needs values"},
		{"fractional n", CampaignSpec{Base: base, Axes: []Axis{
			{Field: FieldN, Values: []float64{8.5}},
		}}, "integer"},
		{"strings on n", CampaignSpec{Base: base, Axes: []Axis{
			{Field: FieldN, Strings: []string{"8"}},
		}}, "strings apply only"},
		{"bad process", CampaignSpec{Base: base, Axes: []Axis{
			{Field: FieldProcess, Strings: []string{"bogus"}},
		}}, "unknown process"},
		{"invalid point", CampaignSpec{Base: spec.RunSpec{Seed: 1, Rounds: 4, N: 8, M: 4}, Axes: []Axis{
			{Field: FieldProcess, Strings: []string{spec.ProcessTetris}},
		}}, "m applies only"},
		{"too many points", CampaignSpec{Base: base, Axes: []Axis{
			{Field: FieldSeed, From: 0, To: MaxPoints, Step: 1},
		}}, "more than"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cs := c.cs
			_, err := cs.Expand()
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("error = %v, want containing %q", err, c.want)
			}
		})
	}
}

// TestCampaignIDLawOnly: the campaign ID hashes the law of the expanded
// points — placement, concurrency and grid-vs-list spelling must not
// perturb it, and a law change must.
func TestCampaignIDLawOnly(t *testing.T) {
	mk := func(mut func(*CampaignSpec)) string {
		cs := CampaignSpec{
			Base: spec.RunSpec{Seed: 3, Rounds: 8},
			Axes: []Axis{{Field: FieldN, From: 32, To: 128, Factor: 2}},
		}
		if mut != nil {
			mut(&cs)
		}
		plan, err := cs.Expand()
		if err != nil {
			t.Fatal(err)
		}
		return plan.ID
	}
	base := mk(nil)
	if got := mk(func(cs *CampaignSpec) { cs.Concurrency = 7 }); got != base {
		t.Error("concurrency changed the campaign ID")
	}
	if got := mk(func(cs *CampaignSpec) {
		cs.Base.Placement = spec.Placement{Transport: spec.TransportTCPMesh, Procs: 1}
	}); got != base {
		t.Error("placement changed the campaign ID")
	}
	if got := mk(func(cs *CampaignSpec) {
		cs.Axes = []Axis{{Field: FieldN, Values: []float64{32, 64, 128}}}
	}); got != base {
		t.Error("grid-vs-list spelling changed the campaign ID")
	}
	if got := mk(func(cs *CampaignSpec) { cs.Base.Seed = 4 }); got == base {
		t.Error("a law change kept the campaign ID")
	}
}
