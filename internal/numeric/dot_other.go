//go:build !amd64

package numeric

// dotBlocks sets y[r] = Σ c[t]·w[r+t] for every r < len(y), adding the
// terms in increasing t to a sum that starts at +0. len(y) must be a
// multiple of dotBlock, c must be non-empty, and w must hold at least
// len(y)+len(c)−1 elements. This is the portable form of dot_amd64.s.
func dotBlocks(y, c, w []float64) {
	for r := range y {
		wr := w[r : r+len(c)]
		sum := 0.0
		for t, cv := range c {
			sum += cv * wr[t]
		}
		y[r] = sum
	}
}
