package engine

import "repro/internal/rng"

// Drawer is the random source of ReleaseUniform. A nil-visit round throws
// its released balls through ThrowUniform, which draws from the wrapped
// source in bulk (rng.Source.Fill32n); a round with a visit callback draws
// one destination per released bin through Intn. Both consume the same
// sequence — Fill32n yields the values of successive Uint64n calls — so a
// trajectory does not depend on which path drew it. A Drawer is not safe
// for concurrent use.
type Drawer struct {
	src *rng.Source
}

// NewDrawer wraps src. The Drawer draws directly from src: interleaving
// calls on the Drawer and on src preserves the overall sequence.
func NewDrawer(src *rng.Source) *Drawer {
	return &Drawer{src: src}
}

// Intn returns one uniform draw in [0, n).
func (d *Drawer) Intn(n int) int { return d.src.Intn(n) }
