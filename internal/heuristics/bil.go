package heuristics

import (
	"math"

	"repro/internal/dag"
	"repro/internal/platform"
	"repro/internal/schedule"
)

// BIL implements the Best Imaginary Level heuristic of Oh & Ha for
// unrelated processors. The basic imaginary level of task i on
// processor p is
//
//	BIL(i,p) = w(i,p) + max_{k ∈ succ(i)} min( BIL(k,p),
//	                                           min_{q≠p} BIL(k,q) + c̄(i,k) )
//
// computed bottom-up. At every step the ready task with the highest
// priority — the k-th smallest of its basic imaginary makespans
// BIM(i,p) = EST(i,p) + BIL(i,p), with k = min(#ready, m) — is selected
// and placed on the processor minimizing its (revised) BIM. When more
// tasks are ready than processors, the BIM is inflated by the expected
// queuing factor w(i,p)·(#ready/m − 1) as in the original paper.
//
// The priorities are kept incrementally. A ready task's predecessors
// are all placed, so its latest data arrival on each processor is fixed
// when it becomes ready; EST(i,p) is that arrival or p's ready time,
// whichever is later, and a step moves only the chosen processor's
// ready time, and only forwards. Each ready task therefore keeps its m
// BIMs and its processors ordered by BIM: its priority is the k-th
// entry of that order, and after a placement on p only the ready tasks
// now waiting for p get a new BIM(i,p), with p moved rightwards in
// their order. A step costs O(#ready) priority reads plus O(m) per
// revised order, and a task costs O(m·(in-degree + m)) once when it
// becomes ready — instead of O(#ready · m · (in-degree + k)) per step.
//
// The equivalence harness pins its results by frozen digests.
func BIL(scen *platform.Scenario) (Result, error) {
	cm, err := NewCostModel(scen)
	if err != nil {
		return Result{}, err
	}
	n, m := cm.N, cm.M
	csr := cm.csr

	// Bottom-up computation of BIL(i,p), flat n×m row-major.
	bil := make([]float64, n*m)
	for idx := n - 1; idx >= 0; idx-- {
		t := cm.order[idx]
		row := bil[int(t)*m : int(t)*m+m]
		for p := 0; p < m; p++ {
			best := 0.0
			for j := csr.SuccStart[t]; j < csr.SuccStart[t+1]; j++ {
				k := csr.SuccAdj[j]
				krow := bil[int(k)*m : int(k)*m+m]
				// Cheapest continuation of k: stay on p (no comm) or the
				// best other processor plus the communication cost.
				minOther := -1.0
				for q := 0; q < m; q++ {
					if q == p {
						continue
					}
					if minOther < 0 || krow[q] < minOther {
						minOther = krow[q]
					}
				}
				cont := krow[p]
				if minOther >= 0 {
					if alt := minOther + cm.EdgeAvgComm[csr.SuccEdge[j]]; alt < cont {
						cont = alt
					}
				}
				if cont > best {
					best = cont
				}
			}
			row[p] = cm.MeanETC[int(t)*m+p] + best
		}
	}

	// List scheduling driven by BIM, append mode.
	sched := schedule.New(n, m)
	start := make([]float64, n)
	finish := make([]float64, n)
	procReady := make([]float64, m)
	for i := range start {
		start[i] = -1
	}
	// Per ready task t, flat n×m row-major: arrive holds the latest
	// predecessor data arrival on each processor, bim the BIMs, and
	// byBIM the processors in ascending BIM order.
	arrive := make([]float64, n*m)
	bim := make([]float64, n*m)
	byBIM := make([]int32, n*m)
	// est folds the fixed arrival with p's ready time: the ready time
	// unless data arrive later.
	est := func(t dag.Task, p int) float64 {
		if a := arrive[int(t)*m+p]; a > procReady[p] {
			return a
		}
		return procReady[p]
	}
	var ready []dag.Task
	makeReady := func(t dag.Task) {
		row := int(t) * m
		for p := 0; p < m; p++ {
			a := math.Inf(-1)
			for k := csr.PredStart[t]; k < csr.PredStart[t+1]; k++ {
				pr := csr.PredAdj[k]
				if arr := finish[pr] + cm.Comm(csr.PredEdge[k], sched.Proc[pr], p); arr > a {
					a = arr
				}
			}
			arrive[row+p] = a
			b := est(t, p) + bil[row+p]
			bim[row+p] = b
			// Insertion sort of the processors by BIM.
			j := p
			for ; j > 0 && bim[row+int(byBIM[row+j-1])] > b; j-- {
				byBIM[row+j] = byBIM[row+j-1]
			}
			byBIM[row+j] = int32(p)
		}
		ready = append(ready, t)
	}

	indeg := make([]int32, n)
	for t := 0; t < n; t++ {
		indeg[t] = csr.PredStart[t+1] - csr.PredStart[t]
		if indeg[t] == 0 {
			makeReady(dag.Task(t))
		}
	}
	for len(ready) > 0 {
		k := len(ready)
		if k > m {
			k = m
		}
		// Select the ready task with the largest k-th smallest BIM.
		bestIdx := -1
		bestPriority := 0.0
		for idx, t := range ready {
			row := int(t) * m
			prio := bim[row+int(byBIM[row+k-1])]
			if bestIdx < 0 || prio > bestPriority ||
				(prio == bestPriority && t < ready[bestIdx]) { //reprovet:allow floateq deterministic tie-break on exactly equal priorities (paper rule)
				bestIdx, bestPriority = idx, prio
			}
		}
		t := ready[bestIdx]
		ready[bestIdx] = ready[len(ready)-1]
		ready = ready[:len(ready)-1]

		// Processor choice: minimize the (revised) BIM.
		overload := float64(len(ready)+1)/float64(m) - 1
		bestProc := -1
		bestVal := 0.0
		bestStart := 0.0
		for p := 0; p < m; p++ {
			e := est(t, p)
			val := e + bil[int(t)*m+p]
			if overload > 0 {
				val += cm.MeanETC[int(t)*m+p] * overload
			}
			if bestProc < 0 || val < bestVal {
				bestProc, bestVal, bestStart = p, val, e
			}
		}
		// Commit (append mode).
		sched.Assign(t, bestProc)
		start[t] = bestStart
		finish[t] = bestStart + cm.MeanETC[int(t)*m+bestProc]
		if finish[t] > procReady[bestProc] {
			procReady[bestProc] = finish[t]
			// Only the ready tasks whose data reach bestProc no later
			// than its new ready time see their EST there move. BIMs only
			// grow, so bestProc only moves rightwards in their orders.
			rt := procReady[bestProc]
			for _, r := range ready {
				row := int(r) * m
				if arrive[row+bestProc] > rt {
					continue
				}
				b := rt + bil[row+bestProc]
				bim[row+bestProc] = b
				order := byBIM[row : row+m]
				j := 0
				for int(order[j]) != bestProc {
					j++
				}
				for ; j+1 < m && bim[row+int(order[j+1])] < b; j++ {
					order[j] = order[j+1]
				}
				order[j] = int32(bestProc)
			}
		}
		for j := csr.SuccStart[t]; j < csr.SuccStart[t+1]; j++ {
			s := csr.SuccAdj[j]
			indeg[s]--
			if indeg[s] == 0 {
				makeReady(dag.Task(s))
			}
		}
	}
	var ms float64
	for i, st := range start {
		if st >= 0 && finish[i] > ms {
			ms = finish[i]
		}
	}
	return Result{Schedule: sched, Makespan: ms}, nil
}
