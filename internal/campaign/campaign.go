// Package campaign turns single runs into phase diagrams: a versioned
// CampaignSpec declares axes over the law plane of spec.RunSpec (n, m,
// lambda, seed, process — the fields that feed ResultKey), expands
// deterministically into an ordered list of point RunSpecs, and one
// bounded-concurrency driver (Run) hands each point to an Executor: in
// process (spec.RunSpec.Start + checkpoint.Run, the default), against a
// running rbb-serve (Remote), or — when rbb-serve hosts the campaign
// itself — the server's own scheduler. A campaign is resumable
// mid-flight: an atomic JSON manifest
// records per-point status and result digests, SIGTERM snapshots in-flight
// rbb points through the checkpoint machinery, and re-running the same
// spec skips completed points byte-identically. Completed points fold into
// a single table artifact (text + CSV + JSON) — the phase-diagram output.
//
// Axes are deliberately law-plane-only. Placement (transport, procs,
// hosts) and the observer/checkpoint knobs never perturb a trajectory, so
// sweeping them cannot produce a phase diagram — it would produce the same
// point many times under different wall-clocks. Placement is instead a
// property of the whole campaign (the Base spec's placement applies to
// every point), and can change freely between a run and its resume: the
// campaign identity hashes only the law of the expanded points.
package campaign

import (
	"fmt"
	"hash/fnv"
	"math"
	"strconv"
	"strings"

	"repro/internal/spec"
)

// Version is the CampaignSpec schema version Normalize stamps. Version 0
// (the field absent) is accepted and upgraded.
const Version = 1

// Axis fields accepted by Axis.Field — exactly the sweepable law-plane
// fields of spec.RunSpec.
const (
	FieldN       = "n"
	FieldM       = "m"
	FieldLambda  = "lambda"
	FieldSeed    = "seed"
	FieldProcess = "process"
)

// MaxPoints bounds the expanded point count of one campaign; a spec
// whose axes multiply out beyond it is rejected rather than silently
// truncated.
const MaxPoints = 65536

// Axis declares one swept dimension: either an explicit list (Values for
// the numeric fields, Strings for process) or a grid (From..To with
// exactly one of Step or Factor). Grid values are materialized into
// Values by Normalize, so a normalized spec is self-describing and
// expansion arithmetic happens exactly once.
type Axis struct {
	// Field is the swept RunSpec field: n | m | lambda | seed | process.
	Field string `json:"field"`
	// Values is the explicit value list for the numeric fields. Integer
	// fields (n, m, seed) require every value to be a non-negative
	// integer below 2⁵³ (exact in float64).
	Values []float64 `json:"values,omitempty"`
	// Strings is the explicit value list for the process field
	// (rbb | tetris | batches).
	Strings []string `json:"strings,omitempty"`
	// From..To with Step > 0 is an additive grid (From, From+Step, …,
	// ≤ To); with Factor > 1 a multiplicative grid (From, From·Factor,
	// …, ≤ To). Exactly one of Step/Factor; numeric fields only.
	From   float64 `json:"from,omitempty"`
	To     float64 `json:"to,omitempty"`
	Step   float64 `json:"step,omitempty"`
	Factor float64 `json:"factor,omitempty"`
}

// CampaignSpec is one campaign submission: a base RunSpec plus the axes
// swept over it. Axis order is significant — expansion is the Cartesian
// product in declared order, last axis fastest, with seed replicas as the
// implicit innermost axis.
type CampaignSpec struct {
	// Version is the schema version (0 = pre-versioning, upgraded by
	// Normalize).
	Version int `json:"version,omitempty"`
	// Name labels the campaign in artifacts and status output.
	Name string `json:"name,omitempty"`
	// Base is the point template: each point copies it, substitutes the
	// axis values, then normalizes. Base placement applies to every
	// point and — like all placement — never affects results.
	Base spec.RunSpec `json:"base"`
	// Axes are the swept dimensions, outermost first.
	Axes []Axis `json:"axes,omitempty"`
	// Replicas ≥ 1 (default 1) runs each axis combination Replicas
	// times with seeds base+0 … base+Replicas-1 (offsets applied after
	// any seed axis), as the implicit innermost axis.
	Replicas int `json:"replicas,omitempty"`
	// Concurrency is the runner's concurrent-point budget (default 1).
	// Scheduling plane: it is excluded from the campaign identity and
	// can change between run and resume.
	Concurrency int `json:"concurrency,omitempty"`
}

// Point is one expanded campaign point: a fully normalized RunSpec plus
// its position and coordinates on the campaign's axes.
type Point struct {
	// Index is the point's position in expansion order.
	Index int `json:"index"`
	// ID is the point's stable identity — a pure function of Index and
	// the point spec's ResultKey, so the same CampaignSpec produces the
	// same IDs on every platform, forever. Checkpoint files and manifest
	// entries are keyed by it.
	ID string `json:"id"`
	// Coords are the formatted axis values of this point, parallel to
	// Plan.AxisNames (replica coordinate last when Replicas > 1).
	Coords []string `json:"coords"`
	// Spec is the point's normalized RunSpec.
	Spec spec.RunSpec `json:"spec"`
}

// Plan is the deterministic expansion of a CampaignSpec.
type Plan struct {
	// ID is the campaign identity: an FNV-1a hash over the ordered
	// ResultKeys of every point. It covers exactly the law — two specs
	// expanding to the same ordered law points share an ID regardless of
	// placement, concurrency or grid-vs-list spelling, and a resume
	// directory is validated against it.
	ID string
	// AxisNames are the swept field names in axis order, plus "replica"
	// when Replicas > 1.
	AxisNames []string
	// Points are the expanded points in expansion order.
	Points []Point
}

// integerField reports whether the axis field holds integers.
func integerField(f string) bool { return f == FieldN || f == FieldM || f == FieldSeed }

// maxExactInt is the largest float64 that still represents every smaller
// non-negative integer exactly (2⁵³).
const maxExactInt = float64(1 << 53)

// normalizeAxis validates one axis and materializes grids into Values.
func normalizeAxis(a *Axis) error {
	switch a.Field {
	case FieldN, FieldM, FieldLambda, FieldSeed:
		if len(a.Strings) > 0 {
			return fmt.Errorf("axis %q: strings apply only to the process axis", a.Field)
		}
	case FieldProcess:
		if len(a.Values) > 0 || a.Step != 0 || a.Factor != 0 || a.From != 0 || a.To != 0 {
			return fmt.Errorf("axis process: takes strings only")
		}
		if len(a.Strings) == 0 {
			return fmt.Errorf("axis process: needs at least one value")
		}
		for _, s := range a.Strings {
			switch s {
			case spec.ProcessRBB, spec.ProcessTetris, spec.ProcessBatches:
			default:
				return fmt.Errorf("axis process: unknown process %q", s)
			}
		}
		return nil
	default:
		return fmt.Errorf("unknown axis field %q (want %s|%s|%s|%s|%s — law-plane fields only)",
			a.Field, FieldN, FieldM, FieldLambda, FieldSeed, FieldProcess)
	}
	grid := a.Step != 0 || a.Factor != 0 || a.From != 0 || a.To != 0
	if len(a.Values) > 0 {
		if grid {
			return fmt.Errorf("axis %q: values and from/to grid are mutually exclusive", a.Field)
		}
	} else {
		if !grid {
			return fmt.Errorf("axis %q: needs values or a from/to grid", a.Field)
		}
		if a.Step != 0 && a.Factor != 0 {
			return fmt.Errorf("axis %q: step and factor are mutually exclusive", a.Field)
		}
		if a.To < a.From {
			return fmt.Errorf("axis %q: need to >= from, got %v < %v", a.Field, a.To, a.From)
		}
		switch {
		case a.Step > 0:
			// From + i·Step (not an accumulating sum), so every value is
			// one multiply-add from the spec — deterministic across
			// platforms and immune to accumulation drift.
			for i := 0; ; i++ {
				v := a.From + float64(i)*a.Step
				if v > a.To {
					break
				}
				a.Values = append(a.Values, v)
				if len(a.Values) > MaxPoints {
					return fmt.Errorf("axis %q: more than %d grid values", a.Field, MaxPoints)
				}
			}
		case a.Factor > 1:
			if a.From <= 0 {
				return fmt.Errorf("axis %q: factor grid needs from > 0", a.Field)
			}
			for v := a.From; v <= a.To; v *= a.Factor {
				a.Values = append(a.Values, v)
				if len(a.Values) > MaxPoints {
					return fmt.Errorf("axis %q: more than %d grid values", a.Field, MaxPoints)
				}
			}
		default:
			return fmt.Errorf("axis %q: need step > 0 or factor > 1", a.Field)
		}
		a.From, a.To, a.Step, a.Factor = 0, 0, 0, 0
	}
	for _, v := range a.Values {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("axis %q: non-finite value", a.Field)
		}
		if integerField(a.Field) {
			if v < 0 || v != math.Trunc(v) || v >= maxExactInt {
				return fmt.Errorf("axis %q: value %v is not a non-negative integer below 2^53", a.Field, v)
			}
		}
	}
	return nil
}

// Normalize fills defaults in place and validates the campaign: known
// schema version, valid law-plane axes (grids materialized into explicit
// Values), no duplicate axis fields, Replicas and Concurrency ≥ 1. Point
// specs are validated later, by Expand, because axis substitution decides
// which RunSpec invariants apply. Normalize is idempotent.
func (cs *CampaignSpec) Normalize() error {
	if cs.Version < 0 || cs.Version > Version {
		return fmt.Errorf("unsupported campaign version %d (this build speaks <= %d)", cs.Version, Version)
	}
	cs.Version = Version
	seen := map[string]bool{}
	for i := range cs.Axes {
		if err := normalizeAxis(&cs.Axes[i]); err != nil {
			return err
		}
		if seen[cs.Axes[i].Field] {
			return fmt.Errorf("duplicate axis over %q", cs.Axes[i].Field)
		}
		seen[cs.Axes[i].Field] = true
	}
	if cs.Replicas == 0 {
		cs.Replicas = 1
	}
	if cs.Replicas < 1 {
		return fmt.Errorf("need replicas >= 1, got %d", cs.Replicas)
	}
	if cs.Concurrency == 0 {
		cs.Concurrency = 1
	}
	if cs.Concurrency < 1 {
		return fmt.Errorf("need concurrency >= 1, got %d", cs.Concurrency)
	}
	return nil
}

// axisLen returns an axis's value count.
func axisLen(a Axis) int {
	if a.Field == FieldProcess {
		return len(a.Strings)
	}
	return len(a.Values)
}

// formatCoord renders one axis value as a coordinate label (also used as
// an aggregate-table cell, so integers render without decimals).
func formatCoord(a Axis, i int) string {
	if a.Field == FieldProcess {
		return a.Strings[i]
	}
	v := a.Values[i]
	if integerField(a.Field) {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// apply substitutes one axis value into a point spec.
func apply(sp *spec.RunSpec, a Axis, i int) {
	switch a.Field {
	case FieldN:
		sp.N = int(a.Values[i])
	case FieldM:
		sp.M = int(a.Values[i])
	case FieldLambda:
		sp.Lambda = a.Values[i]
	case FieldSeed:
		sp.Seed = uint64(a.Values[i])
	case FieldProcess:
		sp.Process = a.Strings[i]
	}
}

// Expand normalizes the campaign in place and expands it into its plan:
// the Cartesian product of the axes in declared order (last axis fastest),
// replicas innermost, each point's spec normalized independently. The
// expansion — point order, IDs, coordinates and the campaign ID — is a
// pure function of the spec: no clock, host or scheduling state feeds it.
func (cs *CampaignSpec) Expand() (*Plan, error) {
	if err := cs.Normalize(); err != nil {
		return nil, err
	}
	total := cs.Replicas
	for _, a := range cs.Axes {
		total *= axisLen(a)
		if total > MaxPoints {
			return nil, fmt.Errorf("campaign expands to more than %d points", MaxPoints)
		}
	}
	plan := &Plan{Points: make([]Point, 0, total)}
	for _, a := range cs.Axes {
		plan.AxisNames = append(plan.AxisNames, a.Field)
	}
	if cs.Replicas > 1 {
		plan.AxisNames = append(plan.AxisNames, "replica")
	}
	// Odometer over axis value indices, last axis fastest.
	idx := make([]int, len(cs.Axes))
	h := fnv.New64a()
	for {
		for r := 0; r < cs.Replicas; r++ {
			sp := cs.Base
			// Slice fields of the base are shared across points; they are
			// never mutated, but give each point its own quantile slice so
			// a stored manifest cannot alias another point's.
			sp.Quantiles = append([]float64(nil), cs.Base.Quantiles...)
			coords := make([]string, 0, len(plan.AxisNames))
			for ai, a := range cs.Axes {
				apply(&sp, a, idx[ai])
				coords = append(coords, formatCoord(a, idx[ai]))
			}
			sp.Seed += uint64(r)
			if cs.Replicas > 1 {
				coords = append(coords, strconv.Itoa(r))
			}
			if err := sp.Normalize(0); err != nil {
				return nil, fmt.Errorf("point %d (%s): %w", len(plan.Points), strings.Join(coords, ","), err)
			}
			i := len(plan.Points)
			key := sp.ResultKey()
			plan.Points = append(plan.Points, Point{
				Index:  i,
				ID:     pointID(i, key),
				Coords: coords,
				Spec:   sp,
			})
			h.Write([]byte(key))
			h.Write([]byte{'\n'})
		}
		// Advance the odometer; no axes means exactly one combination.
		ai := len(idx) - 1
		for ; ai >= 0; ai-- {
			idx[ai]++
			if idx[ai] < axisLen(cs.Axes[ai]) {
				break
			}
			idx[ai] = 0
		}
		if ai < 0 {
			break
		}
	}
	plan.ID = fmt.Sprintf("%016x", h.Sum64())
	return plan, nil
}

// pointID derives a point's identity from its expansion index and its
// spec's ResultKey: "p00042-<fnv64a of the key>". The index keeps IDs
// unique even when two points share a law (duplicate axis values are
// allowed); the key hash makes the ID meaningful across campaigns.
func pointID(index int, resultKey string) string {
	h := fnv.New64a()
	h.Write([]byte(resultKey))
	return fmt.Sprintf("p%05d-%016x", index, h.Sum64())
}
