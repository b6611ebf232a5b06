// Package sim runs independent simulation trials, in parallel across
// GOMAXPROCS, with fully deterministic results: trial i always receives the
// generator rng.NewStream(seed, i), so the aggregate is a pure function of
// (seed, trials) regardless of scheduling or worker count.
package sim

import (
	"errors"
	"fmt"
	"runtime"
	"sync"

	"repro/internal/rng"
	"repro/internal/stats"
)

// Trial computes one independent replication. It receives the trial index
// and a private random source, and returns one or more named metric values
// (the same length for every trial).
type Trial func(trial int, src *rng.Source) ([]float64, error)

// Result aggregates a metric column across trials.
type Result struct {
	// Name of the metric (from the Spec).
	Name string
	// Summary over the trials.
	Summary stats.Summary
	// Values holds the per-trial observations in trial order.
	Values []float64
}

// Spec describes a batch of trials.
type Spec struct {
	// Trials is the number of replications (>= 1).
	Trials int
	// Seed is the master seed; trial i uses rng.NewStream(Seed, i).
	Seed uint64
	// Metrics names the columns returned by the Trial function.
	Metrics []string
	// Parallelism caps the worker count; 0 means GOMAXPROCS.
	Parallelism int
}

// Run executes the spec. All trials run even if some fail; the first error
// (by trial index) is returned, with no results.
func Run(spec Spec, fn Trial) ([]Result, error) {
	if fn == nil {
		return nil, errors.New("sim: Run with nil trial function")
	}
	if spec.Trials < 1 {
		return nil, fmt.Errorf("sim: Trials = %d < 1", spec.Trials)
	}
	if len(spec.Metrics) == 0 {
		return nil, errors.New("sim: no metrics declared")
	}
	workers := spec.Parallelism
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > spec.Trials {
		workers = spec.Trials
	}

	nm := len(spec.Metrics)
	values := make([][]float64, nm)
	for i := range values {
		values[i] = make([]float64, spec.Trials)
	}
	errs := make([]error, spec.Trials)

	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for t := range next {
				src := rng.NewStream(spec.Seed, uint64(t))
				row, err := fn(t, src)
				if err != nil {
					errs[t] = err
					continue
				}
				if len(row) != nm {
					errs[t] = fmt.Errorf("sim: trial %d returned %d metrics, want %d", t, len(row), nm)
					continue
				}
				for i, v := range row {
					values[i][t] = v
				}
			}
		}()
	}
	for t := 0; t < spec.Trials; t++ {
		next <- t
	}
	close(next)
	wg.Wait()

	for t, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("sim: trial %d failed: %w", t, err)
		}
	}
	out := make([]Result, nm)
	for i, name := range spec.Metrics {
		out[i] = Result{
			Name:    name,
			Summary: stats.Summarize(values[i]),
			Values:  values[i],
		}
	}
	return out, nil
}

// RunScalar is a convenience wrapper for single-metric trials.
func RunScalar(trials int, seed uint64, name string, fn func(trial int, src *rng.Source) (float64, error)) (Result, error) {
	results, err := Run(Spec{Trials: trials, Seed: seed, Metrics: []string{name}},
		func(t int, src *rng.Source) ([]float64, error) {
			v, err := fn(t, src)
			if err != nil {
				return nil, err
			}
			return []float64{v}, nil
		})
	if err != nil {
		return Result{}, err
	}
	return results[0], nil
}
