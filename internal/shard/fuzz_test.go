package shard

import (
	"math"
	"testing"

	"repro/internal/coupling"
	"repro/internal/dist"
	"repro/internal/rng"
	"repro/internal/walks"
)

// FuzzSteppers checks the steppers on tiny systems whose loads sit at the
// storage-width edges: near 255 (65,535 when wide), where an arrival
// overflows the cells it lands in (or, on the coupling's staged Tetris
// side, merges into), widens them and resumes. Run with
// `go test -fuzz=FuzzSteppers`; the seed corpus runs as part of the
// ordinary test suite, and widens in both a sparse and a dense round at
// both widths.
//
// The sequential process under each arrival rule must match, round by
// round, a replay of a copy of its source through the update rule itself
// (see replay), and under the batch rules an EmptyTracker observing it
// must match the replay's first-empty rounds. The sharded process at S = 3 under
// relaunch and quota, the Lemma 3 coupling and the token process must
// keep their ball counts every round; the token process holds a record
// per ball, so it runs only at the 8-bit edge.
func FuzzSteppers(f *testing.F) {
	hot := func(n, every int) []byte {
		cfg := make([]byte, n)
		for i := 0; i < n; i += every {
			cfg[i] = 0x80 | byte(i)
		}
		return cfg
	}
	// Six hot bins of 24 start sparse (|W|·3 < n); 24 of 24 and 7 of 21
	// start dense.
	for _, wide := range []bool{false, true} {
		f.Add(hot(24, 4), wide, uint8(40), uint8(3), uint64(1))
		f.Add(hot(24, 1), wide, uint8(20), uint8(3), uint64(2))
		f.Add(hot(21, 3), wide, uint8(63), uint8(2), uint64(3))
	}
	f.Add([]byte{0x83}, false, uint8(10), uint8(0), uint64(4))
	// Cold bins of one and two balls beside a hot one empty within the
	// first rounds, so the trackers' first-empty rounds are checked too.
	f.Add([]byte{1, 2, 0x80, 1, 2, 4, 5, 1}, false, uint8(30), uint8(1), uint64(5))
	f.Fuzz(func(t *testing.T, cfg []byte, wide bool, roundsRaw, lambdaRaw uint8, seed uint64) {
		loads := edgeLoads(cfg, wide)
		rounds := int(roundsRaw%64) + 1
		lambda := float64(lambdaRaw%4+1) / 4
		checkSequential(t, loads, rounds, lambda, seed)
		checkConservation(t, loads, rounds, lambda, seed, !wide)
	})
}

// edgeLoads decodes a start of at most 24 bins: a byte with its top bit
// set is a hot bin holding top − (b mod 4) balls, top being 255, or
// 65,535 when wide; any other byte is a cold bin holding b mod 3.
func edgeLoads(cfg []byte, wide bool) []int32 {
	top := int32(math.MaxUint8)
	if wide {
		top = math.MaxUint16
	}
	loads := make([]int32, max(1, min(len(cfg), 24)))
	for i, b := range cfg[:min(len(cfg), len(loads))] {
		if b&0x80 != 0 {
			loads[i] = top - int32(b%4)
		} else {
			loads[i] = int32(b % 3)
		}
	}
	return loads
}

// replay is the oracle of the sequential steppers: the update rule
//
//	Q_v(t+1) = max(Q_v(t) − 1, 0) + arrivals_v(t+1)
//
// played on plain int64 loads, releasing a ball from every non-empty bin
// and then throwing the round's arrivals one Intn(n) draw at a time. The
// steppers draw the same values in blocks (Fill32n yields successive
// Uint64n values), so from a copy of their source it reproduces their
// trajectory exactly. first tracks each bin's first empty round, as the
// Lemma 4 tracker must.
type replay struct {
	q     []int64
	first []int64
	src   *rng.Source
	round int64
	// count draws the round's arrival count from the released one.
	count func(released int, src *rng.Source) int
}

func newReplay(t *testing.T, loads []int32, src *rng.Source, count func(released int, src *rng.Source) int) *replay {
	r := &replay{q: make([]int64, len(loads)), first: make([]int64, len(loads)), src: rng.New(0), count: count}
	if err := r.src.SetState(src.State()); err != nil {
		t.Fatal(err)
	}
	for v, l := range loads {
		r.q[v], r.first[v] = int64(l), -1
		if l == 0 {
			r.first[v] = 0
		}
	}
	return r
}

func (r *replay) step() {
	released := 0
	for v := range r.q {
		if r.q[v] > 0 {
			r.q[v]--
			released++
		}
	}
	for k := r.count(released, r.src); k > 0; k-- {
		r.q[r.src.Intn(len(r.q))]++
	}
	r.round++
	for v, l := range r.q {
		if l == 0 && r.first[v] < 0 {
			r.first[v] = r.round
		}
	}
}

// checkSequential steps the sequential process under each arrival rule
// against its replay, and under the batch rules an EmptyTracker as well.
func checkSequential(t *testing.T, loads []int32, rounds int, lambda float64, seed uint64) {
	n := len(loads)
	src := rng.New(seed)
	p, err := NewSequential(loads, src, ArrivalRule{})
	if err != nil {
		t.Fatal(err)
	}
	relaunch := func(released int, _ *rng.Source) int { return released }
	matchReplay(t, p, nil, newReplay(t, loads, src, relaunch), rounds)

	binom, err := dist.NewBinomial(n, lambda)
	if err != nil {
		t.Fatal(err)
	}
	pois, err := dist.NewPoisson(lambda * float64(n))
	if err != nil {
		t.Fatal(err)
	}
	k := int(math.Ceil(lambda * float64(n)))
	for _, tc := range []struct {
		law   ArrivalKind
		count func(released int, src *rng.Source) int
	}{
		{ArrivalQuota, func(int, *rng.Source) int { return k }},
		{ArrivalBinomial, func(_ int, src *rng.Source) int { return binom.Sample(src) }},
		{ArrivalPoisson, func(_ int, src *rng.Source) int { return pois.Sample(src) }},
	} {
		src := rng.New(seed)
		tp, err := NewSequential(loads, src, ArrivalRule{Kind: tc.law, Lambda: lambda})
		if err != nil {
			t.Fatal(err)
		}
		matchReplay(t, tp, NewEmptyTracker(tp), newReplay(t, loads, src, tc.count), rounds)
	}
}

// matchReplay steps p and r rounds times and fails at the first round on
// which p's loads, statistics, invariants or (if first is non-nil, after
// it observes the round) first-empty rounds leave the replay's.
func matchReplay(t *testing.T, p *Process, first *EmptyTracker, r *replay, rounds int) {
	t.Helper()
	name := p.Rule().String()
	for round := 1; round <= rounds; round++ {
		p.Step()
		r.step()
		if first != nil {
			first.Observe(p)
		}
		if err := p.CheckInvariants(); err != nil {
			t.Fatalf("%s round %d: %v", name, round, err)
		}
		var balls int64
		var top int32
		empty := 0
		for v, want := range r.q {
			got := p.Load(v)
			if int64(got) != want {
				t.Fatalf("%s round %d bin %d: load %d, replay %d", name, round, v, got, want)
			}
			balls += want
			top = max(top, got)
			if want == 0 {
				empty++
			}
			if first != nil && first.FirstEmptyRound(v) != r.first[v] {
				t.Fatalf("%s round %d bin %d: first empty at %d, replay %d", name, round, v, first.FirstEmptyRound(v), r.first[v])
			}
		}
		if p.Balls() != balls || p.MaxLoad() != top || p.EmptyBins() != empty {
			t.Fatalf("%s round %d: balls %d max %d empty %d, replay %d %d %d",
				name, round, p.Balls(), p.MaxLoad(), p.EmptyBins(), balls, top, empty)
		}
	}
}

// checkConservation steps the sharded process at S = 3 under relaunch and
// quota, the Lemma 3 coupling and, with token set, the token process, and
// checks their ball counts after every round.
func checkConservation(t *testing.T, loads []int32, rounds int, lambda float64, seed uint64, token bool) {
	var m int64
	for _, l := range loads {
		m += int64(l)
	}
	opts := Options{Shards: 3, Workers: 1}
	relaunch, err := NewProcess(loads, seed, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Rule = ArrivalRule{Kind: ArrivalQuota, Lambda: lambda}
	quota, err := NewProcess(loads, seed, opts)
	if err != nil {
		t.Fatal(err)
	}
	k := int64(math.Ceil(lambda * float64(len(loads))))
	c, err := coupling.New(loads, rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	var tp *walks.Traversal
	if token {
		if tp, err = walks.NewTokenProcess(loads, rng.New(seed), walks.Options{}); err != nil {
			t.Fatal(err)
		}
	}
	for round := 1; round <= rounds; round++ {
		before := quota.Balls()
		relaunch.Step()
		quota.Step()
		c.Step()
		if err := relaunch.CheckInvariants(); err != nil || relaunch.Balls() != m {
			t.Fatalf("S=3 relaunch round %d: %d balls, want %d (%v)", round, relaunch.Balls(), m, err)
		}
		if want := before - int64(quota.Released()) + k; quota.Balls() != want {
			t.Fatalf("S=3 quota round %d: %d balls, want %d", round, quota.Balls(), want)
		}
		if err := quota.CheckInvariants(); err != nil {
			t.Fatalf("S=3 quota round %d: %v", round, err)
		}
		if err := c.CheckInvariants(m); err != nil {
			t.Fatalf("coupling round %d: %v", round, err)
		}
		if tp != nil {
			tp.Step()
			if err := tp.CheckInvariants(); err != nil {
				t.Fatalf("token round %d: %v", round, err)
			}
		}
	}
}
