//go:build race

package schedule

// raceEnabled mirrors the race detector's build tag: under it sync.Pool
// drops a random share of Puts, so pooled-worker reuse is not certain.
const raceEnabled = true
