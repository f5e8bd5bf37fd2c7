package experiment

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"repro/internal/robustness"
)

func TestJSONFloatRoundTrip(t *testing.T) {
	for _, v := range []float64{0, 1.5, -2.25, 1e-300, math.MaxFloat64, 0.1,
		math.NaN(), math.Inf(1), math.Inf(-1)} {
		b, err := json.Marshal(JSONFloat(v))
		if err != nil {
			t.Fatalf("marshal %g: %v", v, err)
		}
		var got JSONFloat
		if err := json.Unmarshal(b, &got); err != nil {
			t.Fatalf("unmarshal %s: %v", b, err)
		}
		g := float64(got)
		if math.IsNaN(v) {
			if !math.IsNaN(g) {
				t.Errorf("NaN round-tripped to %g", g)
			}
		} else if g != v {
			t.Errorf("%g round-tripped to %g (via %s)", v, g, b)
		}
	}
}

func TestJSONFloatAcceptsNullAndInfSpellings(t *testing.T) {
	var f JSONFloat
	if err := json.Unmarshal([]byte("null"), &f); err != nil || !math.IsNaN(float64(f)) {
		t.Errorf("null decoded to (%g, %v), want NaN", float64(f), err)
	}
	if err := json.Unmarshal([]byte(`"Inf"`), &f); err != nil || !math.IsInf(float64(f), 1) {
		t.Errorf(`"Inf" decoded to (%g, %v), want +Inf`, float64(f), err)
	}
	if err := json.Unmarshal([]byte(`"nonsense"`), &f); err == nil {
		t.Error("garbage string accepted")
	}
}

// sameFloat compares with NaN == NaN.
func sameFloat(a, b float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.IsNaN(a) && math.IsNaN(b)
	}
	return a == b
}

func sameMetrics(a, b robustness.Metrics) bool {
	va, vb := a.Vector(), b.Vector()
	for i := range va {
		if !sameFloat(va[i], vb[i]) {
			return false
		}
	}
	return true
}

func TestCaseResultJSONRoundTrip(t *testing.T) {
	orig := fixtureCase()
	data, err := json.Marshal(orig)
	if err != nil {
		t.Fatal(err)
	}
	var got CaseResult
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if got.Spec != orig.Spec {
		t.Errorf("spec round-tripped to %+v, want %+v", got.Spec, orig.Spec)
	}
	if len(got.Metrics) != len(orig.Metrics) {
		t.Fatalf("got %d metric vectors, want %d", len(got.Metrics), len(orig.Metrics))
	}
	for i := range orig.Metrics {
		if !sameMetrics(got.Metrics[i], orig.Metrics[i]) {
			t.Errorf("metrics[%d] = %+v, want %+v", i, got.Metrics[i], orig.Metrics[i])
		}
	}
	if len(got.Heuristics) != len(orig.Heuristics) {
		t.Fatalf("got %d heuristics", len(got.Heuristics))
	}
	for i := range orig.Heuristics {
		if got.Heuristics[i].Name != orig.Heuristics[i].Name ||
			!sameMetrics(got.Heuristics[i].Metrics, orig.Heuristics[i].Metrics) {
			t.Errorf("heuristics[%d] mismatch", i)
		}
	}
	for i := range orig.Corr {
		for j := range orig.Corr[i] {
			if !sameFloat(got.Corr[i][j], orig.Corr[i][j]) {
				t.Errorf("corr[%d][%d] = %g, want %g", i, j, got.Corr[i][j], orig.Corr[i][j])
			}
		}
	}
	if !sameFloat(got.RelByMakespanVsStd, orig.RelByMakespanVsStd) {
		t.Errorf("rel_by_makespan_vs_std = %g", got.RelByMakespanVsStd)
	}
	// A second marshal must reproduce the exact bytes (schema-stable).
	data2, err := json.Marshal(&got)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, data2) {
		t.Error("re-marshal changed the document")
	}
}

func TestCaseResultJSONRoundTripFromRealRun(t *testing.T) {
	cfg := testConfig()
	cfg.Schedules = 10
	res, err := RunCase(Fig3Case(1), cfg)
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var got CaseResult
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	data2, err := json.Marshal(&got)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, data2) {
		t.Error("computed case did not survive a JSON round trip bit-exactly")
	}
	// The text report must render identically from the decoded copy —
	// this is what makes cache-resumed sweeps byte-identical.
	var a, b strings.Builder
	WriteCase(&a, res)
	WriteCase(&b, &got)
	if a.String() != b.String() {
		t.Error("text report differs after JSON round trip")
	}
}

func TestFig6ResultJSONRoundTrip(t *testing.T) {
	orig := fixtureFig6()
	data, err := json.Marshal(orig)
	if err != nil {
		t.Fatal(err)
	}
	var got Fig6Result
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	data2, err := json.Marshal(&got)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, data2) {
		t.Error("fig6 document did not survive a round trip")
	}
	if len(got.Cases) != len(orig.Cases) {
		t.Fatalf("got %d cases", len(got.Cases))
	}
	if !sameFloat(got.RelByMkspnMean, orig.RelByMkspnMean) || !sameFloat(got.RelByMkspnStd, orig.RelByMkspnStd) {
		t.Error("aggregate scalars mismatch")
	}
}

func TestJSONSchemaGuards(t *testing.T) {
	var cr CaseResult
	if err := json.Unmarshal([]byte(`{"schema":"bogus/v9"}`), &cr); err == nil {
		t.Error("case decoder accepted a foreign schema")
	}
	var f6 Fig6Result
	if err := json.Unmarshal([]byte(`{"schema":"bogus/v9"}`), &f6); err == nil {
		t.Error("fig6 decoder accepted a foreign schema")
	}
	if err := json.Unmarshal([]byte(`{"schema":"`+CaseResultSchema+`","spec":{"kind":"alien"}}`), &cr); err == nil {
		t.Error("case decoder accepted an unknown graph kind")
	}
}

func TestVariableULJSONRoundTripWithNaN(t *testing.T) {
	orig := &VariableULResult{
		ConstCorr: 0.875, VarCorr: math.NaN(), ULLo: 1, ULHi: 1.8,
		HEFTMakespan: 90, Lambda: 2,
		Sweep: []SDHEFTPoint{{Lambda: 2, Makespan: 92, Std: 2.5, Differs: true}},
	}
	data, err := json.Marshal(orig)
	if err != nil {
		t.Fatalf("NaN correlation broke the encoder: %v", err)
	}
	var got VariableULResult
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if got.ConstCorr != 0.875 || !math.IsNaN(got.VarCorr) {
		t.Errorf("correlations round-tripped to (%g, %g)", got.ConstCorr, got.VarCorr)
	}
	if got.HEFTMakespan != 90 || len(got.Sweep) != 1 || !got.Sweep[0].Differs {
		t.Error("pass-through fields lost")
	}
}

func TestSpecJSONRoundTripsEveryFamily(t *testing.T) {
	// Every family must survive the spec encode/decode by name.
	for _, name := range FamilyNames() {
		spec := CaseSpec{Name: "rt-" + name, Family: name, N: 10, M: 3, UL: 1.1, Seed: 9}
		got, err := specFromJSON(specToJSON(spec))
		if err != nil || got != spec {
			t.Errorf("spec for family %q round-tripped to (%+v, %v)", name, got, err)
		}
	}
	if _, err := specFromJSON(caseSpecJSON{Family: "kind(7)"}); err == nil {
		t.Error("unknown family accepted")
	}
}

func TestWriteMatrixCSVValidation(t *testing.T) {
	names := []string{"a", "b"}
	if err := WriteMatrixCSV(&strings.Builder{}, names, [][]float64{{1, 2}}); err == nil {
		t.Error("row count mismatch accepted")
	}
	if err := WriteMatrixCSV(&strings.Builder{}, names, [][]float64{{1}, {2, 3}}); err == nil {
		t.Error("column count mismatch accepted")
	}
	var b strings.Builder
	if err := WriteMatrixCSV(&b, names, [][]float64{{1, math.NaN()}, {0.5, math.Inf(-1)}}); err != nil {
		t.Fatal(err)
	}
	want := "metric,a,b\na,1,NaN\nb,0.5,-Inf\n"
	if b.String() != want {
		t.Errorf("CSV = %q, want %q", b.String(), want)
	}
}
