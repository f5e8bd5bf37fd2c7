package stochastic

import (
	"fmt"
	"strconv"
	"strings"
)

// EvalAccuracy is the discretization contract of the numeric evaluation
// stack: how many PDF samples represent a random variable, and how fine
// the intermediate convolution grid of Add may get. The paper fixes the
// first at 64 spline-interpolated points; the second was an implicit
// 8192-point cap. Making both explicit turns the work-grid cost of Add
// into a measured speed/accuracy trade-off instead of a hard-coded
// constant: a CPU profile of the reference contract on the 10k-task
// Cholesky benchmark case (BenchmarkEvalAccuracyFastReference, 2-vCPU
// Intel Xeon VM) puts the work-grid spline fits at ~39% of samples, the
// resamples at ~38% and the direct convolution (SSE2 on amd64) at ~10%.
//
// The zero value means "the paper's contract": Canon resolves it to
// AccuracyReference, and every consumer canonicalizes before use, so
// EvalAccuracy{} and AccuracyReference are interchangeable.
type EvalAccuracy struct {
	// GridSize is the number of PDF samples of every materialized
	// density (<= 0 selects DefaultGridSize).
	GridSize int
	// WorkGrid caps the intermediate convolution grid of Add: summing a
	// wide density with a narrow one resamples both onto the narrow
	// step, bounded to at most WorkGrid points over the result support
	// (<= 0 selects DefaultMaxWorkGrid). This is the resampling policy:
	// lowering it caps the cost of the dominant wide×narrow sums.
	WorkGrid int
}

// Named accuracy presets. Reference reproduces the paper's contract
// bit-for-bit; Fast keeps the 64-point densities but caps intermediate
// convolution grids at 256 points; Coarse halves the density grid too.
// The measured per-metric error of Fast and Coarse is reported by the
// accuracy study (cmd/experiments -fig accuracy) and quoted in the
// README.
var (
	AccuracyReference = EvalAccuracy{GridSize: DefaultGridSize, WorkGrid: DefaultMaxWorkGrid}
	AccuracyFast      = EvalAccuracy{GridSize: DefaultGridSize, WorkGrid: 256}
	AccuracyCoarse    = EvalAccuracy{GridSize: 32, WorkGrid: 128}
)

// AccuracyNames lists the named presets accepted by ParseEvalAccuracy,
// in decreasing fidelity.
func AccuracyNames() []string { return []string{"reference", "fast", "coarse"} }

// AccuracyByName resolves a preset name (as listed by AccuracyNames).
func AccuracyByName(name string) (EvalAccuracy, bool) {
	switch name {
	case "", "reference":
		return AccuracyReference, true
	case "fast":
		return AccuracyFast, true
	case "coarse":
		return AccuracyCoarse, true
	}
	return EvalAccuracy{}, false
}

// Canon resolves defaulted fields, returning the canonical form:
// Canon of the zero value is AccuracyReference.
func (a EvalAccuracy) Canon() EvalAccuracy {
	if a.GridSize <= 0 {
		a.GridSize = DefaultGridSize
	}
	if a.WorkGrid <= 0 {
		a.WorkGrid = DefaultMaxWorkGrid
	}
	return a
}

// String renders the canonical spelling: a preset name when the value
// matches one, otherwise the explicit "grid=G,work=W" form. The output
// round-trips through ParseEvalAccuracy.
func (a EvalAccuracy) String() string {
	c := a.Canon()
	switch c {
	case AccuracyReference:
		return "reference"
	case AccuracyFast:
		return "fast"
	case AccuracyCoarse:
		return "coarse"
	}
	return fmt.Sprintf("grid=%d,work=%d", c.GridSize, c.WorkGrid)
}

// ParseEvalAccuracy parses an accuracy spelling: empty or a preset name
// ("reference", "fast", "coarse"), or explicit "grid=G", "work=W",
// "grid=G,work=W" fields (any order; omitted fields take the reference
// defaults). Unknown names, malformed fields and a field given twice
// are errors — never a silent fallback.
func ParseEvalAccuracy(s string) (EvalAccuracy, error) {
	s = strings.TrimSpace(s)
	if acc, ok := AccuracyByName(s); ok {
		return acc, nil
	}
	if !strings.Contains(s, "=") {
		return EvalAccuracy{}, fmt.Errorf(
			"stochastic: unknown accuracy preset %q (want %s or grid=G[,work=W])",
			s, strings.Join(AccuracyNames(), "|"))
	}
	acc := EvalAccuracy{}
	for _, field := range strings.Split(s, ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(field), "=")
		if !ok {
			return EvalAccuracy{}, fmt.Errorf("stochastic: malformed accuracy field %q in %q", field, s)
		}
		n, err := strconv.Atoi(strings.TrimSpace(v))
		if err != nil || n < 2 {
			return EvalAccuracy{}, fmt.Errorf("stochastic: accuracy field %q needs an integer >= 2 in %q", k, s)
		}
		var dst *int
		switch strings.TrimSpace(k) {
		case "grid":
			dst = &acc.GridSize
		case "work":
			dst = &acc.WorkGrid
		default:
			return EvalAccuracy{}, fmt.Errorf("stochastic: unknown accuracy field %q in %q (want grid or work)", k, s)
		}
		if *dst != 0 { // every accepted value is >= 2
			return EvalAccuracy{}, fmt.Errorf("stochastic: accuracy field %q given twice in %q", k, s)
		}
		*dst = n
	}
	return acc.Canon(), nil
}
