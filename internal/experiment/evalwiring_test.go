package experiment

import (
	"context"
	"encoding/json"
	"testing"
	"time"

	"repro/internal/runner"
)

// Fig1's seeds must derive from each size's identity, not its slice
// position: reordering the sizes cannot change any row. The historical
// cfg.Seed + index*77 scheme made row values depend on where a size
// appeared in the list (and let per-schedule MC seeds collide with the
// next size's scenario seed).
func TestFig1SizeOrderInvariance(t *testing.T) {
	cfg := testConfig()
	cfg.MCRealizations = 2000
	ab, err := Fig1(cfg, []int{10, 30}, 2)
	if err != nil {
		t.Fatal(err)
	}
	ba, err := Fig1(cfg, []int{30, 10}, 2)
	if err != nil {
		t.Fatal(err)
	}
	byN := func(rows []Fig1Row) map[int]Fig1Row {
		m := make(map[int]Fig1Row, len(rows))
		for _, r := range rows {
			m[r.N] = r
		}
		return m
	}
	a, b := byN(ab), byN(ba)
	for n, ra := range a {
		rb, ok := b[n]
		if !ok {
			t.Fatalf("size %d missing from reordered run", n)
		}
		if ra != rb {
			t.Errorf("size %d differs across orderings: %+v vs %+v", n, ra, rb)
		}
	}
}

// RunCaseOn must emit heuristic rows sorted by stable name, so the
// resulting JSON document lists them in one fixed order.
func TestRunCaseHeuristicOrderInvariance(t *testing.T) {
	cfg := testConfig()
	cfg.Schedules = 8
	res, err := RunCase(Fig3Case(5), cfg)
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Heuristics []struct {
			Name string `json:"name"`
		} `json:"heuristics"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Heuristics) == 0 {
		t.Fatal("no heuristic rows")
	}
	for i := 1; i < len(doc.Heuristics); i++ {
		if doc.Heuristics[i-1].Name > doc.Heuristics[i].Name {
			t.Fatalf("heuristic rows not sorted: %v", doc.Heuristics)
		}
	}
}

// TestSweepCase10k is the scale gate of the compiled evaluation layer:
// a full 10 000-task sweep case — random-schedule metric vectors,
// heuristic rows, correlation matrix — must complete end to end. It is
// skipped under -short; CI runs it in a dedicated step.
func TestSweepCase10k(t *testing.T) {
	if testing.Short() {
		t.Skip("10k-task case evaluation is minutes of work; run without -short")
	}
	if raceEnabled {
		t.Skip("10k-task case under the race detector would take hours; smaller cases cover the concurrency")
	}
	cfg := DefaultConfig()
	cfg.Schedules = 40 // schedulesFor(n >= 100) divides by 5 → 8 evaluations
	spec := CaseSpec{Name: "sweep-10k", Family: CholeskyFamily, N: 10000, M: 16, UL: 1.1, Seed: 42}
	pool := runner.NewPool(cfg.workers())
	defer pool.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 25*time.Minute)
	defer cancel()
	start := time.Now()
	res, err := RunCaseOn(ctx, spec, cfg, pool)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("10k case (%d schedules + %d heuristics) in %v",
		len(res.Metrics), len(res.Heuristics), time.Since(start))
	if len(res.Metrics) == 0 || len(res.Corr) != 8 {
		t.Fatalf("malformed case result: %d metrics, %d corr rows", len(res.Metrics), len(res.Corr))
	}
	for _, m := range res.Metrics {
		if m.Makespan <= 0 {
			t.Fatal("nonpositive makespan in 10k case")
		}
	}
}
