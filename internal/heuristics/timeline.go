package heuristics

import "sort"

// slot is a busy interval on a processor.
type slot struct{ start, finish float64 }

// timeline is a gap-indexed processor timeline: the busy intervals of
// one processor sorted by start time, plus the running prefix maximum
// of their finish times. earliest answers the same query as a linear
// scan of the sorted intervals (the test oracle insertionStart) — the
// earliest start ≥ est leaving room for dur, allowing insertion into
// idle gaps — but instead of scanning the whole slice it
// binary-searches the first interval that can interact with est and
// takes an O(1) fast path for the dominant append-at-tail case. add
// keeps the intervals sorted as the oracle's insertSlot does (append
// fast path; copy-shift only on the rare mid-timeline insertion).
//
// Equivalence with the linear scan: intervals whose prefix-max finish
// is ≤ est can neither advance the scan cursor (that needs
// finish > cur ≥ est) nor produce an earlier return — the gap test
// (cur+dur ≤ start+ε with cur still est) would, at the first
// non-skipped interval, fire with the same result, because starts are
// sorted. Both facts hold for any interval layout the insertion policy
// can produce, including the ε-overlapping and zero-length intervals
// of zero-duration tasks, so earliest is bit-identical to
// insertionStart on every slot set built through add.
type timeline struct {
	slots  []slot
	maxFin []float64 // maxFin[i] = max finish over slots[0..i]
}

// earliest returns the earliest start ≥ est with room for dur.
func (tl *timeline) earliest(est, dur float64) float64 {
	k := len(tl.slots)
	if k == 0 || est >= tl.maxFin[k-1] {
		// Tail fast path: nothing finishes after est, so nothing can
		// push the start past est.
		return est
	}
	// Skip the prefix that ends by est.
	lo := sort.Search(k, func(i int) bool { return tl.maxFin[i] > est })
	cur := est
	for i := lo; i < k; i++ {
		s := &tl.slots[i]
		if almostLE(cur+dur, s.start) {
			return cur
		}
		if s.finish > cur {
			cur = s.finish
		}
	}
	return cur
}

// add records a busy interval, keeping slots sorted by start exactly
// like insertSlot (new intervals go before existing equal starts).
func (tl *timeline) add(s slot) {
	k := len(tl.slots)
	if k == 0 || s.start > tl.slots[k-1].start {
		mf := s.finish
		if k > 0 && tl.maxFin[k-1] > mf {
			mf = tl.maxFin[k-1]
		}
		tl.slots = append(tl.slots, s)
		tl.maxFin = append(tl.maxFin, mf)
		return
	}
	idx := sort.Search(k, func(i int) bool { return tl.slots[i].start >= s.start })
	tl.slots = append(tl.slots, slot{})
	copy(tl.slots[idx+1:], tl.slots[idx:])
	tl.slots[idx] = s
	tl.maxFin = append(tl.maxFin, 0)
	for i := idx; i < len(tl.slots); i++ {
		mf := tl.slots[i].finish
		if i > 0 && tl.maxFin[i-1] > mf {
			mf = tl.maxFin[i-1]
		}
		tl.maxFin[i] = mf
	}
}

// newTimelines allocates one timeline per processor.
func newTimelines(m int) []timeline {
	return make([]timeline, m)
}
