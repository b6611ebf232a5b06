package sim

import (
	"errors"
	"testing"

	"repro/internal/rng"
)

func TestRunDeterministicAcrossParallelism(t *testing.T) {
	fn := func(trial int, src *rng.Source) ([]float64, error) {
		// A value that depends on both the trial stream and some work.
		s := 0.0
		for i := 0; i < 100; i++ {
			s += src.Float64()
		}
		return []float64{s, float64(trial)}, nil
	}
	run := func(par int) []Result {
		res, err := Run(Spec{Trials: 40, Seed: 7, Metrics: []string{"sum", "idx"}, Parallelism: par}, fn)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(1), run(8)
	for m := range a {
		for i := range a[m].Values {
			if a[m].Values[i] != b[m].Values[i] {
				t.Fatalf("metric %d trial %d differs across parallelism", m, i)
			}
		}
	}
}

func TestRunTrialIndexing(t *testing.T) {
	res, err := Run(Spec{Trials: 10, Seed: 1, Metrics: []string{"idx"}},
		func(trial int, _ *rng.Source) ([]float64, error) {
			return []float64{float64(trial)}, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range res[0].Values {
		if v != float64(i) {
			t.Fatalf("trial %d wrote %v", i, v)
		}
	}
	if res[0].Summary.N != 10 || res[0].Summary.Mean != 4.5 {
		t.Fatalf("summary wrong: %+v", res[0].Summary)
	}
}

func TestRunStreamsDiffer(t *testing.T) {
	res, err := Run(Spec{Trials: 8, Seed: 3, Metrics: []string{"first"}},
		func(_ int, src *rng.Source) ([]float64, error) {
			return []float64{src.Float64()}, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[float64]bool{}
	for _, v := range res[0].Values {
		if seen[v] {
			t.Fatal("two trials produced the same first draw; streams not independent")
		}
		seen[v] = true
	}
}

func TestRunErrorPropagates(t *testing.T) {
	boom := errors.New("boom")
	_, err := Run(Spec{Trials: 5, Seed: 1, Metrics: []string{"x"}},
		func(trial int, _ *rng.Source) ([]float64, error) {
			if trial == 3 {
				return nil, boom
			}
			return []float64{1}, nil
		})
	if err == nil || !errors.Is(err, boom) {
		t.Fatalf("error not propagated: %v", err)
	}
}

func TestRunValidation(t *testing.T) {
	ok := func(int, *rng.Source) ([]float64, error) { return []float64{1}, nil }
	if _, err := Run(Spec{Trials: 0, Seed: 1, Metrics: []string{"x"}}, ok); err == nil {
		t.Error("0 trials accepted")
	}
	if _, err := Run(Spec{Trials: 1, Seed: 1}, ok); err == nil {
		t.Error("no metrics accepted")
	}
	if _, err := Run(Spec{Trials: 1, Seed: 1, Metrics: []string{"x"}}, nil); err == nil {
		t.Error("nil fn accepted")
	}
	if _, err := Run(Spec{Trials: 1, Seed: 1, Metrics: []string{"x", "y"}},
		func(int, *rng.Source) ([]float64, error) { return []float64{1}, nil }); err == nil {
		t.Error("metric arity mismatch accepted")
	}
}

func TestRunScalar(t *testing.T) {
	res, err := RunScalar(6, 9, "val", func(trial int, _ *rng.Source) (float64, error) {
		return float64(trial * 2), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Name != "val" || res.Summary.N != 6 || res.Summary.Max != 10 {
		t.Fatalf("scalar result wrong: %+v", res.Summary)
	}
}

func TestRunScalarError(t *testing.T) {
	boom := errors.New("boom")
	if _, err := RunScalar(2, 1, "v", func(int, *rng.Source) (float64, error) {
		return 0, boom
	}); !errors.Is(err, boom) {
		t.Fatal("scalar error not propagated")
	}
}
