package rbb

import (
	"errors"
	"math"
	"strings"
	"testing"
)

func TestFacadeQuickstart(t *testing.T) {
	src := NewSource(42)
	p, err := NewProcess(OnePerBin(256), src)
	if err != nil {
		t.Fatal(err)
	}
	p.Run(2000)
	if !IsLegitimate(p.LoadsCopy()) {
		t.Fatalf("process left the legitimate set: max load %d", p.MaxLoad())
	}
	if p.Round() != 2000 {
		t.Fatalf("round = %d", p.Round())
	}
}

func TestFacadeTokenProcess(t *testing.T) {
	tp, err := NewTokenProcess(OnePerBin(64), NewSource(1), TokenOptions{Strategy: LIFO})
	if err != nil {
		t.Fatal(err)
	}
	tp.Run(100)
	if err := tp.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeTetrisAndCoupling(t *testing.T) {
	src := NewSource(3)
	tet, err := NewTetris(AllInOne(128, 128), src, ArrivalRule{Kind: ArrivalQuota})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := NewEmptyTracker(tet).RunUntilAllEmptied(5 * 128); !ok {
		t.Fatal("tetris did not empty within 5n")
	}
	c, err := NewCoupled(UniformRandom(128, 128, src), src)
	if err != nil {
		t.Fatal(err)
	}
	c.Run(500)
	if !c.Dominated() {
		t.Fatal("domination broke")
	}
}

func TestFacadeDriftChain(t *testing.T) {
	ch, err := NewDriftChain(256)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ch.Drift()+0.25) > 0.01 {
		t.Fatalf("drift = %v", ch.Drift())
	}
	if DriftBound(144) != math.Exp(-1) {
		t.Fatal("DriftBound wrong")
	}
}

func TestFacadeGraphsAndTraversal(t *testing.T) {
	src := NewSource(5)
	for _, mk := range []func() (Graph, error){
		func() (Graph, error) { return NewCompleteGraph(32) },
		func() (Graph, error) { return NewRingGraph(32) },
		func() (Graph, error) { return NewTorusGraph(4, 8) },
		func() (Graph, error) { return NewHypercubeGraph(5) },
		func() (Graph, error) { return NewRandomRegularGraph(32, 4, src) },
	} {
		g, err := mk()
		if err != nil {
			t.Fatal(err)
		}
		tr, err := NewTraversalOnePerNode(g, src, TraversalOptions{})
		if err != nil {
			t.Fatal(err)
		}
		tr.Run(50)
		if err := tr.CheckInvariants(); err != nil {
			t.Fatalf("%s: %v", g.Name(), err)
		}
	}
}

func TestFacadeSingleWalkCover(t *testing.T) {
	g, err := NewCompleteGraph(64)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := SingleWalkCover(g, 0, NewSource(7), 100000); !ok {
		t.Fatal("single walk did not cover")
	}
}

func TestFacadeExperimentAccess(t *testing.T) {
	ids := ExperimentIDs()
	if len(ids) != 20 || ids[0] != "E01" || ids[19] != "E20" {
		t.Fatalf("ids = %v", ids)
	}
	res, err := RunExperiment("E12", ExperimentConfig{Scale: ScaleSmall, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Pass {
		t.Fatal("E12 failed at small scale")
	}
	_, err = RunExperiment("E99", ExperimentConfig{})
	var unknown *UnknownExperimentError
	if !errors.As(err, &unknown) || unknown.ID != "E99" {
		t.Fatalf("unknown-experiment error not returned: %v", err)
	}
	if unknown.Error() == "" {
		t.Fatal("empty error text")
	}
}

func TestFacadeSharded(t *testing.T) {
	p, err := NewShardedProcess(OnePerBin(512), 11, ShardOptions{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	p.Run(50)
	if p.Round() != 50 || p.Balls() != 512 {
		t.Fatalf("round %d balls %d", p.Round(), p.Balls())
	}
	tet, err := NewShardedProcess(AllInOne(256, 256), 11, ShardOptions{Shards: 4, Rule: ArrivalRule{Kind: ArrivalQuota}})
	if err != nil {
		t.Fatal(err)
	}
	tet.Run(50)
	if tet.Round() != 50 || tet.Rule().Kind != ArrivalQuota {
		t.Fatalf("tetris round %d rule %v", tet.Round(), tet.Rule())
	}
}

// TestFacadeNewTetrisRefusesRelaunch: the zero rule is relaunch, the
// paper's process, which NewTetris refuses (naming it) instead of
// building the process NewProcess builds.
func TestFacadeNewTetrisRefusesRelaunch(t *testing.T) {
	if _, err := NewTetris(OnePerBin(8), NewSource(1), ArrivalRule{}); err == nil || !strings.Contains(err.Error(), "relaunch") {
		t.Fatalf("NewTetris under the zero rule gave %v, want a refusal naming relaunch", err)
	}
	for _, kind := range []ArrivalKind{ArrivalQuota, ArrivalBinomial, ArrivalPoisson} {
		if _, err := NewTetris(OnePerBin(8), NewSource(1), ArrivalRule{Kind: kind}); err != nil {
			t.Errorf("%v: %v", kind, err)
		}
	}
}

func TestFacadeStreamSources(t *testing.T) {
	a := NewStreamSource(1, 0)
	b := NewStreamSource(1, 1)
	if a.Uint64() == b.Uint64() {
		t.Fatal("streams collide on first draw")
	}
}

func TestLegitimateThresholdFacade(t *testing.T) {
	if LegitimateThreshold(1024, Beta) != 42 {
		t.Fatalf("threshold = %d", LegitimateThreshold(1024, Beta))
	}
}
