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

func benchEngine(b *testing.B, loads []int32, opts Options) {
	st, err := New(loads, opts)
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

func BenchmarkStepSparseAllInOne(b *testing.B)   { benchEngine(b, allInOne(benchN, benchN), Options{}) }
func BenchmarkStepDenseRefAllInOne(b *testing.B) { benchDenseRef(b, allInOne(benchN, benchN)) }
func BenchmarkStepSparseOnePerBin(b *testing.B)  { benchEngine(b, onePerBin(benchN), Options{}) }
func BenchmarkStepDenseRefOnePerBin(b *testing.B) {
	benchDenseRef(b, onePerBin(benchN))
}

// The BENCH_kernel.json family: per-round cost of the dense stationary
// regime under the scalar and batched kernels. From onePerBin the process
// stays dense for its whole life (occupancy decays from 1 to the ≈0.63
// stationary point, always above the 1/3 dense threshold), so every
// measured round takes the kernel under test. Width8 is the steady state
// the paper guarantees (max load Θ(log n) w.h.p.) and the only width with
// the SWAR merge; Width16, where every round of an all-in-one recovery runs,
// has the 4-lane SWAR decrement, and Width32 the branch-free scalar one.
// Each pair has two legs. The plain leg throws through
// ThrowUniform, whose balls land in the cells and whose Commit does no
// scan, so its kernels differ only in the release decrement. The staged
// leg steps the per-bin law (ReleaseUniform with a visit): the release
// takes the per-bin loop and each ball is staged by Deposit under both
// kernels, so its pair differs only in the merge scan, at Width32 not at
// all.
func benchDenseKernel(b *testing.B, n int, w Width, k Kernel, staged bool) {
	st, err := New(onePerBin(n), Options{Width: w, Kernel: k})
	if err != nil {
		b.Fatal(err)
	}
	d := NewDrawer(rng.New(1))
	var visit func(u, dest int)
	if staged {
		visit = func(u, dest int) {}
	}
	// The first round from onePerBin releases every bin; time from the
	// second.
	st.ReleaseUniform(d, visit)
	st.Commit()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.ReleaseUniform(d, visit)
		st.Commit()
	}
	b.ReportMetric(float64(st.NonEmptyBins())/float64(n), "occupancy/final")
}

func BenchmarkDenseKernel(b *testing.B) {
	for _, logN := range []int{20, 21, 22, 23, 24, 25} {
		for _, w := range []Width{Width8, Width16, Width32} {
			for _, k := range []Kernel{KernelScalar, KernelBatched} {
				for _, staged := range []bool{false, true} {
					name := fmt.Sprintf("n=2^%d/w%d/%s", logN, w, k)
					if staged {
						name += "/staged"
					}
					b.Run(name, func(b *testing.B) {
						benchDenseKernel(b, 1<<logN, w, k, staged)
					})
				}
			}
		}
	}
}

// BenchmarkStepOccupancy profiles the layer across the occupancy spectrum
// (m balls thrown into n bins, m/n from 1/64 to 1, about 1−e^(−m/n) of the
// bins non-empty) at the auto width (Width8 here) and at a Width16 floor,
// under both kernels, locating the sparse/dense switch. The sparse path is
// the same under both kernels and the switch is not: at m = n/4 and n/3
// (0.22n and 0.28n non-empty) a batched round runs dense and a scalar one
// sparse, so the pair prices the two paths at one occupancy; at n/8 and
// n/6 (0.12n and 0.15n) both run sparse, and at n both dense. Names
// without a suffix are the default options (auto width, batched kernel).
func BenchmarkStepOccupancy(b *testing.B) {
	for _, w := range []Width{WidthAuto, Width16} {
		for _, frac := range []int{64, 16, 8, 6, 4, 3, 1} {
			for _, k := range []Kernel{KernelBatched, KernelScalar} {
				name := fmt.Sprintf("m=n_div_%d", frac)
				if w != WidthAuto {
					name += fmt.Sprintf("/w%d", w)
				}
				if k != KernelBatched {
					name += "/" + k.String()
				}
				b.Run(name, func(b *testing.B) {
					loads := uniformRandom(benchN, benchN/frac, rng.New(3))
					benchEngine(b, loads, Options{Width: w, Kernel: k})
				})
			}
		}
	}
}
