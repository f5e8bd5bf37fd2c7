package experiment

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"repro/internal/testdigest"
)

// floatBits appends the bits of xs to buf, in order.
func floatBits(buf []byte, xs ...float64) []byte {
	for _, x := range xs {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(x))
	}
	return buf
}

// jsonDigest hashes the JSON document WriteJSON renders for v.
func jsonDigest(t *testing.T, v any) string {
	t.Helper()
	var b bytes.Buffer
	if err := WriteJSON(&b, v); err != nil {
		t.Fatal(err)
	}
	return testdigest.Sum(b.Bytes())
}

// The studies that are not Figs. 3–6 are frozen as digests of their
// results, at one and at four workers: a change to how they draw,
// evaluate or correlate their schedules must keep every bit, at every
// worker count. The oscillating case is pinned on its random
// schedules' metrics and correlations only.
func TestStudyDigests(t *testing.T) {
	frozen := testdigest.Load(t)
	for _, workers := range []int{1, 4} {
		cfg := DefaultConfig()
		cfg.Schedules = 10
		cfg.Workers = workers
		suffix := fmt.Sprintf("/workers%d", workers)

		ul, err := VariableUL(cfg)
		if err != nil {
			t.Fatal(err)
		}
		frozen.Check(t, "ul"+suffix, jsonDigest(t, ul))

		osc, err := OscillatingDurationsCase(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var buf []byte
		for _, m := range osc.Metrics {
			v := m.Vector()
			buf = floatBits(buf, v[:]...)
		}
		for _, row := range osc.Corr {
			buf = floatBits(buf, row...)
		}
		buf = floatBits(buf, osc.RelByMakespanVsStd)
		frozen.Check(t, "osc"+suffix, testdigest.Sum(buf))
	}
}

// The accuracy study is frozen the same way. Its draw has a floor of
// 8 schedules per family, which makes it ~1 min under the race
// detector; TestStudyDigests runs the same evaluation loop there.
func TestAccuracyStudyDigests(t *testing.T) {
	if raceEnabled {
		t.Skip("the accuracy study takes ~1 min under the race detector")
	}
	frozen := testdigest.Load(t)
	for _, workers := range []int{1, 4} {
		cfg := DefaultConfig()
		cfg.Workers = workers
		study, err := AccuracyStudyRun(cfg)
		if err != nil {
			t.Fatal(err)
		}
		frozen.Check(t, fmt.Sprintf("accuracy/workers%d", workers), jsonDigest(t, study))
	}
}
