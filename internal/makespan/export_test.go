package makespan

import (
	"encoding/binary"
	"math"

	"repro/internal/stochastic"
	"repro/internal/testdigest"
)

// ClassicWorkers runs Classic with a worker cap of workers, caller
// included, instead of the width rule, and reports how many helpers
// started.
func (m *EvalModel) ClassicWorkers(workers int) (*stochastic.Numeric, int) {
	return m.classic(workers)
}

// ClarkMax and ZeroCommArc let the Spelde oracle share the moment
// formulas and the arc-skip rule with the evaluators.
var (
	ClarkMax    = clarkMax
	ZeroCommArc = zeroCommArc
)

// DensityDigest is the digest of a density's point flag, support and
// sample bits, followed by the bits of extra.
func DensityDigest(rv *stochastic.Numeric, extra ...float64) string {
	var buf []byte
	put := func(v uint64) { buf = binary.LittleEndian.AppendUint64(buf, v) }
	var point uint64
	if rv.IsPoint() {
		point = 1
	}
	put(point)
	put(math.Float64bits(rv.Lo()))
	put(math.Float64bits(rv.Hi()))
	pdf := rv.PDFGrid()
	put(uint64(len(pdf)))
	for _, v := range append(pdf, extra...) {
		put(math.Float64bits(v))
	}
	return testdigest.Sum(buf)
}

// DodinDigest is the digest of a Dodin result: its density's, or its
// error message's when the reduction failed.
func DodinDigest(rv *stochastic.Numeric, err error) string {
	if err != nil {
		return testdigest.Sum([]byte(err.Error()))
	}
	return DensityDigest(rv)
}
