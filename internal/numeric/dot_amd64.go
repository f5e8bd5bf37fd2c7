package numeric

// dotBlocks sets y[r] = Σ c[t]·w[r+t] for every r < len(y), adding the
// terms in increasing t to a sum that starts at +0. len(y) must be a
// multiple of dotBlock, c must be non-empty, and w must hold at least
// len(y)+len(c)−1 elements. Implemented in dot_amd64.s with SSE2.
//
//go:noescape
func dotBlocks(y, c, w []float64)
