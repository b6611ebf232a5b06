// Leaky bins in batches: the probabilistic Tetris variant of Berenbrink et
// al. (PODC 2016), which the paper cites as the follow-up [18]. Instead of
// exactly (3/4)n new balls per round, a random batch of Binomial(n, λ) (or
// Poisson(λn)) balls arrives; every non-empty bin still leaks one ball per
// round. For any λ < 1 the maximum load stays logarithmic; as λ → 1 the
// system approaches saturation and queues swell.
package main

import (
	"fmt"
	"log"
	"math"

	rbb "repro"
)

func main() {
	const n = 1024
	const window = 16 * n

	fmt.Printf("leaky bins: n = %d bins, one departure per non-empty bin per round\n", n)
	fmt.Printf("measuring window max load over %d rounds after warm-up (ln n = %.1f)\n\n", window, math.Log(n))
	fmt.Printf("%10s  %6s  %14s  %12s  %14s\n", "law", "λ", "window max", "max / ln n", "balls (mean)")

	for _, law := range []rbb.ArrivalKind{rbb.ArrivalBinomial, rbb.ArrivalPoisson} {
		for _, lambda := range []float64{0.5, 0.75, 0.9, 0.97} {
			src := rbb.NewSource(uint64(1000 + int(lambda*100)))
			p, err := rbb.NewTetris(rbb.OnePerBin(n), src, rbb.ArrivalRule{Kind: law, Lambda: lambda})
			if err != nil {
				log.Fatal(err)
			}
			p.Run(4 * n) // warm-up to stationarity
			var windowMax int32
			var ballSum float64
			for i := 0; i < window; i++ {
				p.Step()
				if p.MaxLoad() > windowMax {
					windowMax = p.MaxLoad()
				}
				ballSum += float64(p.Balls())
			}
			fmt.Printf("%10s  %6.2f  %14d  %12.2f  %14.0f\n",
				law, lambda, windowMax, float64(windowMax)/math.Log(n), ballSum/float64(window))
		}
	}

	fmt.Println("\nshape: max load is flat and ≈ O(log n) for λ well below 1, rising as λ → 1 —")
	fmt.Println("the \"power of leaky bins\" result of [18], built on this paper's Tetris process.")
}
