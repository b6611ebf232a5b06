package shard

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/dist"
	"repro/internal/rng"
	"repro/internal/tetris"
)

// ArrivalKind names a per-round arrival law that the sharded engine can
// execute and the multi-process transports can carry across process and
// machine boundaries. The kind values are part of the wire protocol
// (internal/shard/transport/tcp) — append only, never renumber.
type ArrivalKind uint8

const (
	// ArrivalRelaunch is the repeated balls-into-bins rule: every ball
	// released in the round is re-thrown. Conserves balls.
	ArrivalRelaunch ArrivalKind = iota
	// ArrivalQuota throws exactly ⌈λ·n⌉ balls per round, split into fixed
	// per-shard quotas summing to the total (tetris.Deterministic).
	ArrivalQuota
	// ArrivalBinomial throws Binomial(n, λ) balls per round; shard s draws
	// Binomial(n_s, λ) from its own stream (tetris.BinomialArrivals).
	ArrivalBinomial
	// ArrivalPoisson throws Poisson(λ·n) balls per round; shard s draws
	// Poisson(λ·n_s) from its own stream (tetris.PoissonArrivals).
	ArrivalPoisson
)

// String returns the kind name.
func (k ArrivalKind) String() string {
	switch k {
	case ArrivalRelaunch:
		return "relaunch"
	case ArrivalQuota:
		return "quota"
	case ArrivalBinomial:
		return "binomial"
	case ArrivalPoisson:
		return "poisson"
	default:
		return fmt.Sprintf("arrival(%d)", uint8(k))
	}
}

// ArrivalRule is the serializable description of an arrival law: the kind
// plus its rate parameter. It is the unit every placement consumes — the
// in-process Process builds its Arrivals closure from it, and the tcp
// transport encodes it into the worker join payload so all process kinds
// cross process and machine boundaries.
//
// The per-shard decomposition is re-derived deterministically from
// (kind, λ, n, S) on whichever side executes it, so a rule — like a
// checkpoint — is placement-free: the trajectory depends only on
// (seed, n, S, rule).
type ArrivalRule struct {
	// Kind selects the law. The zero value is ArrivalRelaunch.
	Kind ArrivalKind
	// Lambda is the arrival rate per bin for the non-relaunch kinds;
	// 0 means the paper's 3/4. Must be 0 for ArrivalRelaunch.
	Lambda float64
}

// RuleForLaw maps a tetris arrival law to its sharded rule.
func RuleForLaw(law tetris.ArrivalLaw, lambda float64) (ArrivalRule, error) {
	switch law {
	case tetris.Deterministic:
		return ArrivalRule{Kind: ArrivalQuota, Lambda: lambda}, nil
	case tetris.BinomialArrivals:
		return ArrivalRule{Kind: ArrivalBinomial, Lambda: lambda}, nil
	case tetris.PoissonArrivals:
		return ArrivalRule{Kind: ArrivalPoisson, Lambda: lambda}, nil
	default:
		return ArrivalRule{}, fmt.Errorf("shard: unknown arrival law %v", law)
	}
}

// Conserves reports whether the rule conserves balls (arrivals ≡ releases).
func (r ArrivalRule) Conserves() bool { return r.Kind == ArrivalRelaunch }

// String renders "relaunch" or "quota(λ=0.75)".
func (r ArrivalRule) String() string {
	if r.Kind == ArrivalRelaunch {
		return r.Kind.String()
	}
	return fmt.Sprintf("%s(λ=%v)", r.Kind, r.Lambda)
}

// Normalize validates the rule and fills the λ default (3/4 for the
// batched kinds), returning the canonical form.
func (r ArrivalRule) Normalize() (ArrivalRule, error) {
	switch r.Kind {
	case ArrivalRelaunch:
		if r.Lambda != 0 {
			return r, fmt.Errorf("shard: relaunch rule with lambda = %v", r.Lambda)
		}
		return r, nil
	case ArrivalQuota, ArrivalBinomial, ArrivalPoisson:
		if r.Lambda == 0 {
			r.Lambda = 0.75
		}
		if r.Lambda < 0 || r.Lambda > 1 || math.IsNaN(r.Lambda) {
			return r, fmt.Errorf("shard: lambda = %v outside (0, 1]", r.Lambda)
		}
		return r, nil
	default:
		return r, fmt.Errorf("shard: unknown arrival kind %d", uint8(r.Kind))
	}
}

// ArrivalRuleWireSize is the encoded size of a rule: one kind byte plus
// the λ float64 bits, little-endian.
const ArrivalRuleWireSize = 9

// AppendWire appends the rule's wire encoding to dst.
func (r ArrivalRule) AppendWire(dst []byte) []byte {
	dst = append(dst, byte(r.Kind))
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], math.Float64bits(r.Lambda))
	return append(dst, b[:]...)
}

// DecodeArrivalRule decodes and validates a rule from its wire encoding.
func DecodeArrivalRule(b []byte) (ArrivalRule, error) {
	if len(b) < ArrivalRuleWireSize {
		return ArrivalRule{}, fmt.Errorf("shard: arrival rule truncated at %d bytes", len(b))
	}
	r := ArrivalRule{
		Kind:   ArrivalKind(b[0]),
		Lambda: math.Float64frombits(binary.LittleEndian.Uint64(b[1:9])),
	}
	return r.Normalize()
}

// Arrivals builds the per-shard arrival closure for a run of n bins in
// the given shard count: the released count for ArrivalRelaunch, and the
// exact batch decomposition for the Tetris kinds (uniform destinations
// make any split law-neutral, and sums of independent binomials with a
// common p, and of independent Poissons, recover Binomial(n, λ) and
// Poisson(λn)) —
// fixed quotas for ArrivalQuota, Binomial(n_s, λ) for ArrivalBinomial,
// Poisson(λ·n_s) for ArrivalPoisson — indexed by global shard. The
// decomposition is a pure function of (rule, n, shards), so every
// placement of the same run derives the same closure.
func (r ArrivalRule) Arrivals(n, shards int) (Arrivals, error) {
	r, err := r.Normalize()
	if err != nil {
		return nil, err
	}
	if shards < 1 || n < shards {
		return nil, fmt.Errorf("shard: arrivals over %d shards of %d bins", shards, n)
	}
	switch r.Kind {
	case ArrivalRelaunch:
		return func(_, released int, _ *rng.Source) int { return released }, nil
	case ArrivalQuota:
		k := int(math.Ceil(r.Lambda * float64(n)))
		quota := make([]int, shards)
		base, rem := k/shards, k%shards
		for i := range quota {
			quota[i] = base
			if i < rem {
				quota[i]++
			}
		}
		return func(s, _ int, _ *rng.Source) int { return quota[s] }, nil
	case ArrivalBinomial:
		binom := make([]*dist.Binomial, shards)
		for i := range binom {
			b, err := dist.NewBinomial(PartitionSize(n, shards, i), r.Lambda)
			if err != nil {
				return nil, err
			}
			binom[i] = b
		}
		return func(s, _ int, src *rng.Source) int { return binom[s].Sample(src) }, nil
	case ArrivalPoisson:
		pois := make([]*dist.Poisson, shards)
		for i := range pois {
			p, err := dist.NewPoisson(r.Lambda * float64(PartitionSize(n, shards, i)))
			if err != nil {
				return nil, err
			}
			pois[i] = p
		}
		return func(s, _ int, src *rng.Source) int { return pois[s].Sample(src) }, nil
	default:
		return nil, fmt.Errorf("shard: unknown arrival kind %d", uint8(r.Kind))
	}
}
