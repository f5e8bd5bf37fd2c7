package schedule_test

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/dag"
	"repro/internal/experiment"
	"repro/internal/heuristics"
	"repro/internal/schedule"
)

// The compiled disjunctive builder must reproduce the map-based path —
// Disjunctive(g) then TopoOrder()/Pred()/Sinks() — exactly: same
// topological order, same per-task adjacency order, same volumes, same
// sinks. The evaluators' bit-identity claims rest on these orders.
func TestCompileDisjunctiveMatchesMapPath(t *testing.T) {
	for _, family := range experiment.FamilyNames() {
		for _, n := range []int{10, 100} {
			spec := experiment.CaseSpec{Name: "cd", Family: family, N: n, M: 4, UL: 1.2, Seed: 3}
			scen, err := spec.BuildScenario()
			var se *experiment.SizeError
			if errors.As(err, &se) {
				continue
			}
			if err != nil {
				t.Fatalf("%s/%d: %v", family, n, err)
			}
			csr := scen.G.SortedCSR()
			rng := rand.New(rand.NewSource(int64(n)))
			for trial := 0; trial < 3; trial++ {
				s := heuristics.RandomSchedule(scen, rng)
				d, err := s.CompileDisjunctive(csr)
				if err != nil {
					t.Fatalf("%s/%d: %v", family, n, err)
				}
				dg, err := s.Disjunctive(scen.G)
				if err != nil {
					t.Fatal(err)
				}
				wantOrder, err := dg.TopoOrder()
				if err != nil {
					t.Fatal(err)
				}
				if len(d.Order) != len(wantOrder) {
					t.Fatalf("%s/%d: order length %d != %d", family, n, len(d.Order), len(wantOrder))
				}
				for i := range wantOrder {
					if d.Order[i] != wantOrder[i] {
						t.Fatalf("%s/%d: topo order diverges at %d: %d != %d",
							family, n, i, d.Order[i], wantOrder[i])
					}
				}
				for task := 0; task < scen.G.N(); task++ {
					wantPred := dg.Pred(dag.Task(task))
					gotPred := d.PredRow(dag.Task(task))
					if len(gotPred) != len(wantPred) {
						t.Fatalf("%s/%d task %d: pred count %d != %d",
							family, n, task, len(gotPred), len(wantPred))
					}
					for k, p := range wantPred {
						if dag.Task(gotPred[k]) != p {
							t.Fatalf("%s/%d task %d: pred[%d] = %d, want %d",
								family, n, task, k, gotPred[k], p)
						}
						if vol := d.PredVol[int(d.PredStart[task])+k]; vol != dg.Volume(p, dag.Task(task)) {
							t.Fatalf("%s/%d task %d: pred vol %g != %g",
								family, n, task, vol, dg.Volume(p, dag.Task(task)))
						}
					}
					wantSucc := dg.Succ(dag.Task(task))
					gotSucc := d.SuccRow(dag.Task(task))
					if len(gotSucc) != len(wantSucc) {
						t.Fatalf("%s/%d task %d: succ count mismatch", family, n, task)
					}
					for k, sc := range wantSucc {
						if dag.Task(gotSucc[k]) != sc {
							t.Fatalf("%s/%d task %d: succ[%d] = %d, want %d",
								family, n, task, k, gotSucc[k], sc)
						}
					}
				}
				wantSinks := dg.Sinks()
				if len(d.Sinks) != len(wantSinks) {
					t.Fatalf("%s/%d: sink count %d != %d", family, n, len(d.Sinks), len(wantSinks))
				}
				for i, sk := range wantSinks {
					if d.Sinks[i] != sk {
						t.Fatalf("%s/%d: sink[%d] = %d, want %d", family, n, i, d.Sinks[i], sk)
					}
				}
			}
		}
	}
}

// SortedCSR must present the cloned graph's adjacency orders.
func TestSortedCSRMatchesCloneOrder(t *testing.T) {
	spec := experiment.CaseSpec{Name: "sc", Family: "random", N: 60, M: 4, UL: 1.2, Seed: 9}
	scen, err := spec.BuildScenario()
	if err != nil {
		t.Fatal(err)
	}
	clone := scen.G.Clone()
	csr := scen.G.SortedCSR()
	for task := 0; task < scen.G.N(); task++ {
		tt := dag.Task(task)
		pred := csr.PredAdj[csr.PredStart[task]:csr.PredStart[task+1]]
		if len(pred) != len(clone.Pred(tt)) {
			t.Fatalf("task %d: pred count mismatch", task)
		}
		for k, p := range clone.Pred(tt) {
			if dag.Task(pred[k]) != p {
				t.Fatalf("task %d: pred[%d] = %d, want %d", task, k, pred[k], p)
			}
			if vol := csr.Vol[csr.PredEdge[int(csr.PredStart[task])+k]]; vol != clone.Volume(p, tt) {
				t.Fatalf("task %d: vol mismatch", task)
			}
		}
		succ := csr.SuccAdj[csr.SuccStart[task]:csr.SuccStart[task+1]]
		for k, sc := range clone.Succ(tt) {
			if dag.Task(succ[k]) != sc {
				t.Fatalf("task %d: succ[%d] = %d, want %d", task, k, succ[k], sc)
			}
		}
	}
}

// The compiled builder must reject exactly what Validate rejects.
func TestCompileDisjunctiveRejectsInvalid(t *testing.T) {
	g := dag.New(3)
	if err := g.AddEdge(0, 1, 1); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge(1, 2, 1); err != nil {
		t.Fatal(err)
	}
	csr := g.SortedCSR()

	// Incomplete schedule.
	s := schedule.New(3, 2)
	if _, err := s.CompileDisjunctive(csr); err == nil {
		t.Error("accepted incomplete schedule")
	}
	// Wrong size.
	s2 := schedule.New(2, 2)
	s2.Assign(0, 0)
	s2.Assign(1, 1)
	if _, err := s2.CompileDisjunctive(csr); err == nil {
		t.Error("accepted wrong-size schedule")
	}
	// Cyclic: processor order contradicts precedence (1 before 0 on p0).
	s3 := schedule.New(3, 2)
	s3.Assign(1, 0)
	s3.Assign(0, 0)
	s3.Assign(2, 1)
	if _, err := s3.CompileDisjunctive(csr); err == nil {
		t.Error("accepted precedence-violating processor order")
	}
	if err := s3.Validate(g); err == nil {
		t.Error("Validate disagrees: accepted the same schedule")
	}
	// Valid schedule passes.
	s4 := schedule.New(3, 2)
	s4.Assign(0, 0)
	s4.Assign(1, 0)
	s4.Assign(2, 0)
	if _, err := s4.CompileDisjunctive(csr); err != nil {
		t.Errorf("rejected valid schedule: %v", err)
	}
}

// CompileDisjunctive checks schedules that users build: over arbitrary
// processor assignments and orders on a small random DAG it must not
// panic, it must reject exactly the schedules Validate rejects, and an
// accepted schedule's topological order must hold every task.
func FuzzCompileDisjunctive(f *testing.F) {
	f.Add(int64(6), uint8(2), []byte{1, 2, 1, 2}, []byte{0, 1, 0, 3, 1, 2, 1, 4})
	f.Add(int64(2), uint8(3), []byte{1, 1}, []byte{0, 2, 0, 1})
	f.Add(int64(3), uint8(1), []byte{0, 9}, []byte{0, 1, 0, 1})
	f.Add(int64(4), uint8(0x80|2), []byte{}, []byte{})
	f.Fuzz(func(t *testing.T, seed int64, shape uint8, procs, order []byte) {
		// A DAG of 0-7 tasks with forward edges only.
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(8)
		g := dag.New(n)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if rng.Intn(3) == 0 {
					if err := g.AddEdge(dag.Task(i), dag.Task(j), float64(rng.Intn(4))); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		// The low bits pick 0-4 processors; the top bit adds one task
		// to the schedule so its size no longer matches the graph's.
		m := int(shape&0x7f) % 5
		s := &schedule.Schedule{M: m, Proc: make([]int, n+int(shape>>7)), Order: make([][]dag.Task, m)}
		// Processors and tasks range one past each end of the valid
		// values.
		for task := range s.Proc {
			s.Proc[task] = -1
			if task < len(procs) {
				s.Proc[task] = int(procs[task])%(m+2) - 1
			}
		}
		for i := 0; m > 0 && i+1 < len(order); i += 2 {
			p := int(order[i]) % m
			s.Order[p] = append(s.Order[p], dag.Task(int(order[i+1])%(n+2)-1))
		}

		d, errC := s.CompileDisjunctive(g.SortedCSR())
		errV := s.Validate(g)
		if (errC == nil) != (errV == nil) {
			t.Fatalf("CompileDisjunctive error %v, Validate error %v", errC, errV)
		}
		if errC == nil && len(d.Order) != n {
			t.Fatalf("accepted schedule orders %d of %d tasks", len(d.Order), n)
		}
	})
}
