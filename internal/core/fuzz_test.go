package core

// Native fuzz targets: the engines must uphold their invariants for any
// initial configuration and step count. Run with `go test -fuzz=FuzzX`;
// the seed corpus below runs as part of the ordinary test suite.

import (
	"testing"

	"repro/internal/rng"
	"repro/internal/walks"
)

// decodeLoads turns fuzz bytes into a small valid configuration.
func decodeLoads(data []byte) []int32 {
	n := len(data)
	if n == 0 {
		return []int32{1}
	}
	if n > 24 {
		n = 24
	}
	loads := make([]int32, n)
	for i := 0; i < n; i++ {
		loads[i] = int32(data[i] % 17)
	}
	return loads
}

func FuzzTokenProcessInvariants(f *testing.F) {
	f.Add([]byte{2, 3, 0, 1}, uint16(50), uint64(1), uint8(0))
	f.Add([]byte{9, 0, 0}, uint16(200), uint64(5), uint8(1))
	f.Add([]byte{1, 1, 1, 1, 1, 1}, uint16(120), uint64(9), uint8(2))
	f.Fuzz(func(t *testing.T, cfg []byte, stepsRaw uint16, seed uint64, stratRaw uint8) {
		loads := decodeLoads(cfg)
		p, err := walks.NewTokenProcess(loads, rng.New(seed), walks.Options{
			Strategy:    walks.Strategy(stratRaw % 3),
			TrackCover:  stratRaw%2 == 0,
			TrackDelays: stratRaw%2 == 1,
		})
		if err != nil {
			t.Skip()
		}
		steps := int(stepsRaw % 256)
		for i := 0; i < steps; i++ {
			p.Step()
		}
		if err := p.CheckInvariants(); err != nil {
			t.Fatalf("loads %v strategy %d after %d steps: %v", loads, stratRaw%3, steps, err)
		}
	})
}

func FuzzChoicesInvariants(f *testing.F) {
	f.Add([]byte{4, 4, 4}, uint16(64), uint64(2), uint8(2))
	f.Fuzz(func(t *testing.T, cfg []byte, stepsRaw uint16, seed uint64, dRaw uint8) {
		loads := decodeLoads(cfg)
		d := int(dRaw%4) + 1
		p, err := NewChoicesProcess(loads, d, rng.New(seed))
		if err != nil {
			t.Skip()
		}
		steps := int(stepsRaw % 256)
		for i := 0; i < steps; i++ {
			p.Step()
		}
		if err := p.CheckInvariants(); err != nil {
			t.Fatalf("loads %v d=%d after %d steps: %v", loads, d, steps, err)
		}
	})
}

// FuzzEnumerateMatchesSimulation cross-checks the exact enumerator against
// the engines on tiny systems: total probability mass must be 1 regardless
// of configuration.
func FuzzEnumerateMatchesSimulation(f *testing.F) {
	f.Add([]byte{1, 1}, uint8(2))
	f.Add([]byte{3, 0, 0}, uint8(1))
	f.Fuzz(func(t *testing.T, cfg []byte, roundsRaw uint8) {
		data := cfg
		if len(data) > 3 {
			data = data[:3]
		}
		loads := make([]int32, len(data))
		var total int32
		for i, b := range data {
			loads[i] = int32(b % 3)
			total += loads[i]
		}
		if len(loads) == 0 || total == 0 {
			t.Skip()
		}
		rounds := int(roundsRaw%3) + 1
		sum := 0.0
		err := EnumerateArrivals(loads, 0, rounds, 1<<18, func(_ []int, p float64) {
			sum += p
		})
		if err != nil {
			t.Skip() // outcome cap hit — fine for fuzz inputs
		}
		if sum < 1-1e-9 || sum > 1+1e-9 {
			t.Fatalf("loads %v rounds %d: mass %v", loads, rounds, sum)
		}
	})
}
