package shard

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"repro/internal/engine"
	"repro/internal/stats"
)

// Pipeline is the streaming observer for huge single runs: it folds each
// round's statistics into O(1)-memory accumulators — running window max
// load, min/mean empty-bin fraction, and P² quantile sketches of the
// per-round max load — so a 10⁸-bin run keeps a full summary without any
// per-round history. It implements engine.Observer and works with any
// engine.Stepper (sharded or sequential).
type Pipeline struct {
	window engine.WindowMax
	empty  engine.EmptyFraction
	probs  []float64
	sketch []*stats.P2Quantile
	rounds int64
}

// NewPipeline builds a pipeline tracking the given max-load quantile
// probabilities (each in (0, 1), sorted copies are kept; the list may be
// empty).
func NewPipeline(quantiles []float64) (*Pipeline, error) {
	probs := append([]float64(nil), quantiles...)
	sort.Float64s(probs)
	p := &Pipeline{probs: probs}
	for _, q := range probs {
		s, err := stats.NewP2Quantile(q)
		if err != nil {
			return nil, fmt.Errorf("shard: pipeline quantile: %w", err)
		}
		p.sketch = append(p.sketch, s)
	}
	return p, nil
}

// PipelineSnapshot is the serializable state of a Pipeline. The tracked
// probabilities ride inside the sketch states (P2State.P), in the
// pipeline's sorted order. The struct marshals to JSON (the service
// frontend's wire form); internal/checkpoint owns the binary form.
type PipelineSnapshot struct {
	Rounds      int64           `json:"rounds"`
	WindowMax   int32           `json:"window_max"`
	WindowAny   bool            `json:"window_any"`
	EmptyMin    float64         `json:"empty_min"`
	EmptySum    float64         `json:"empty_sum"`
	EmptyRounds int64           `json:"empty_rounds"`
	Sketches    []stats.P2State `json:"sketches,omitempty"`
}

// Snapshot captures the pipeline state for checkpointing.
func (p *Pipeline) Snapshot() *PipelineSnapshot {
	snap := &PipelineSnapshot{Rounds: p.rounds}
	snap.WindowMax, snap.WindowAny = p.window.State()
	snap.EmptyMin, snap.EmptySum, snap.EmptyRounds = p.empty.State()
	for _, sk := range p.sketch {
		snap.Sketches = append(snap.Sketches, sk.State())
	}
	return snap
}

// RestorePipeline rebuilds a pipeline from a snapshot. The restored
// pipeline continues the stream exactly: observing the same subsequent
// rounds yields the same summaries as the uninterrupted pipeline.
func RestorePipeline(snap *PipelineSnapshot) (*Pipeline, error) {
	if snap == nil {
		return nil, errors.New("shard: RestorePipeline with nil snapshot")
	}
	if snap.Rounds < 0 || snap.EmptyRounds < 0 {
		return nil, errors.New("shard: RestorePipeline with negative round count")
	}
	if math.IsNaN(snap.EmptyMin) || math.IsNaN(snap.EmptySum) {
		return nil, errors.New("shard: RestorePipeline with NaN empty-fraction state")
	}
	p := &Pipeline{rounds: snap.Rounds}
	p.window.SetState(snap.WindowMax, snap.WindowAny)
	p.empty.SetState(snap.EmptyMin, snap.EmptySum, snap.EmptyRounds)
	for i, st := range snap.Sketches {
		sk, err := stats.RestoreP2Quantile(st)
		if err != nil {
			return nil, fmt.Errorf("shard: pipeline quantile: %w", err)
		}
		if i > 0 && st.P < p.probs[i-1] {
			return nil, errors.New("shard: RestorePipeline quantiles not sorted")
		}
		p.probs = append(p.probs, st.P)
		p.sketch = append(p.sketch, sk)
	}
	return p, nil
}

// Observe implements engine.Observer.
func (p *Pipeline) Observe(s engine.Stepper) {
	p.window.Observe(s)
	p.empty.Observe(s)
	m := float64(s.MaxLoad())
	for _, sk := range p.sketch {
		sk.Add(m)
	}
	p.rounds++
}

// WindowMax returns the maximum observed load (0 before any observation).
func (p *Pipeline) WindowMax() int32 { return p.window.Max() }

// EmptyMean returns the mean observed empty-bin fraction.
func (p *Pipeline) EmptyMean() float64 { return p.empty.Mean() }

// QuantileEstimate is one row of a Summary's quantile table: the tracked
// probability and the current P² estimate of that quantile of the
// per-round max load.
type QuantileEstimate struct {
	P        float64 `json:"p"`
	Estimate float64 `json:"estimate"`
}

// Summary is the JSON-marshalable digest of a Pipeline: the run-so-far
// observer statistics, with the quantile sketches collapsed to their
// estimates. It is the result payload of rbb-serve and of rbb-sim -json;
// two runs with equal trajectories produce byte-equal encodings (every
// field is a deterministic function of the observed rounds).
type Summary struct {
	Rounds    int64              `json:"rounds"`
	WindowMax int32              `json:"window_max"`
	EmptyMin  float64            `json:"empty_min"`
	EmptyMean float64            `json:"empty_mean"`
	Quantiles []QuantileEstimate `json:"quantiles,omitempty"`
	// MemBytesPerBin is the resident load-storage bytes per bin at the end
	// of the run (SummaryFor fills it when the stepper reports LoadBytes).
	// Storage widths only ever ratchet up, so the final figure is also the
	// peak. It is a deterministic function of the trajectory and the width
	// floor — safe for byte-compared summaries.
	MemBytesPerBin float64 `json:"mem_bytes_per_bin,omitempty"`
}

// Summary returns the current digest of the pipeline.
func (p *Pipeline) Summary() Summary {
	s := Summary{
		Rounds:    p.rounds,
		WindowMax: p.window.Max(),
		EmptyMin:  p.empty.Min(),
		EmptyMean: p.empty.Mean(),
	}
	for i, sk := range p.sketch {
		s.Quantiles = append(s.Quantiles, QuantileEstimate{P: p.probs[i], Estimate: sk.Quantile()})
	}
	return s
}

// SummaryFor returns the current digest with memory accounting taken from
// the stepper that produced the trajectory: when s reports LoadBytes (the
// in-process Process and the tcp coordinator do), MemBytesPerBin is filled.
func (p *Pipeline) SummaryFor(s engine.Stepper) Summary {
	sum := p.Summary()
	if lb, ok := s.(interface{ LoadBytes() int64 }); ok && s.N() > 0 {
		sum.MemBytesPerBin = float64(lb.LoadBytes()) / float64(s.N())
	}
	return sum
}

// Quantiles returns the tracked probabilities (sorted) and the current
// estimates of the per-round max-load quantiles, in matching order.
func (p *Pipeline) Quantiles() (probs, estimates []float64) {
	probs = append([]float64(nil), p.probs...)
	for _, sk := range p.sketch {
		estimates = append(estimates, sk.Quantile())
	}
	return probs, estimates
}

// String renders a one-line summary ("p50=7 p90=9 p99=11 ..."), empty if
// no quantiles are tracked.
func (p *Pipeline) String() string {
	var b strings.Builder
	for i, sk := range p.sketch {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "p%s=%.4g", trimProb(p.probs[i]), sk.Quantile())
	}
	return b.String()
}

// trimProb renders 0.5 → "50", 0.99 → "99", 0.999 → "99.9". The product
// is rounded to 0.1 so binary floating point cannot leak into the label
// (0.07 must render "7", not "7.000000000000001").
func trimProb(p float64) string {
	return strings.TrimSuffix(strconv.FormatFloat(math.Round(p*1000)/10, 'f', -1, 64), ".0")
}

var _ engine.Observer = (*Pipeline)(nil)
