package engine

import (
	"fmt"
	"testing"

	"repro/internal/rng"
)

// The ISSUE-level acceptance benchmarks: per-round cost of the shared
// stepping layer versus the historical dense loop, on the two extreme
// configurations.
//
//   - AllInOne at n = 65536 is the paper's worst-case start and the sparse
//     regime: only O(rounds) bins are ever non-empty during the measured
//     window. The sparse layer must win by ≥ 2× (it wins by far more).
//   - OnePerBin at n = 65536 is the balanced/stationary regime where the
//     worklist holds ≈ 0.6n bins; the layer switches to its dense path and
//     must stay within 5% of the reference loop.
//
// Both engine and reference reset to the start configuration every
// resetEvery rounds so the measured distribution does not drift with b.N
// (from AllInOne the process would otherwise self-balance out of the
// sparse regime).
const (
	benchN     = 65536
	resetEvery = 2048
)

func benchEngine(b *testing.B, loads []int32) {
	st, err := New(loads, Options{})
	if err != nil {
		b.Fatal(err)
	}
	d := NewDrawer(rng.New(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%resetEvery == 0 {
			if err := st.Reload(loads); err != nil {
				b.Fatal(err)
			}
		}
		st.ReleaseUniform(d, nil)
		st.Commit()
	}
	b.ReportMetric(float64(st.NonEmptyBins()), "nonempty/final")
}

func benchDenseRef(b *testing.B, loads []int32) {
	ref := newDenseRef(loads, rng.New(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%resetEvery == 0 {
			ref.reload(loads)
		}
		ref.step()
	}
	b.ReportMetric(float64(benchN-ref.empty), "nonempty/final")
}

func BenchmarkStepSparseAllInOne(b *testing.B)   { benchEngine(b, allInOne(benchN, benchN)) }
func BenchmarkStepDenseRefAllInOne(b *testing.B) { benchDenseRef(b, allInOne(benchN, benchN)) }
func BenchmarkStepSparseOnePerBin(b *testing.B)  { benchEngine(b, onePerBin(benchN)) }
func BenchmarkStepDenseRefOnePerBin(b *testing.B) {
	benchDenseRef(b, onePerBin(benchN))
}

// The BENCH_kernel.json family: per-round cost of the dense stationary
// regime under the scalar and batched kernels. From onePerBin the process
// stays dense for its whole life (occupancy decays from 1 to the ≈0.63
// stationary point, always above the 1/3 dense threshold), so every
// measured round takes the kernel under test. Width8 is the steady state
// the paper guarantees (max load Θ(log n) w.h.p.); Width32 isolates the
// radix partition + segmented staging from the SWAR passes, which only
// exist at Width8. The batched kernel's win grows with n as the scalar
// loop's random stores fall out of cache — the acceptance bar is ≥1.3× at
// Width8, n ≥ 2²².
func benchDenseKernel(b *testing.B, n int, w Width, k Kernel) {
	st, err := New(onePerBin(n), Options{Width: w, Kernel: k})
	if err != nil {
		b.Fatal(err)
	}
	d := NewDrawer(rng.New(1))
	// One warmup round sizes the kernel scratch so the measured rounds
	// allocate nothing (TestDenseRoundAllocs pins this).
	st.ReleaseUniform(d, nil)
	st.Commit()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.ReleaseUniform(d, nil)
		st.Commit()
	}
	b.ReportMetric(float64(st.NonEmptyBins())/float64(n), "occupancy/final")
}

func BenchmarkDenseKernel(b *testing.B) {
	for _, logN := range []int{20, 21, 22, 23, 24, 25} {
		for _, w := range []Width{Width8, Width32} {
			for _, k := range []Kernel{KernelScalar, KernelBatched} {
				b.Run(fmt.Sprintf("n=2^%d/w%d/%s", logN, w, k), func(b *testing.B) {
					benchDenseKernel(b, 1<<logN, w, k)
				})
			}
		}
	}
}

// BenchmarkStepOccupancy profiles the layer across the occupancy spectrum
// (m balls thrown into n bins, m/n from 1/64 to 1), locating the
// sparse/dense switch.
func BenchmarkStepOccupancy(b *testing.B) {
	for _, frac := range []int{64, 16, 4, 1} {
		b.Run(fmt.Sprintf("m=n_div_%d", frac), func(b *testing.B) {
			loads := uniformRandom(benchN, benchN/frac, rng.New(3))
			benchEngine(b, loads)
		})
	}
}
