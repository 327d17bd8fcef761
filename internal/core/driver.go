package core

import (
	"math"

	"hyperpraw/internal/hypergraph"
	"hyperpraw/internal/metrics"
)

// restreamer is what a kernel supplies to the Algorithm-1 driver: one
// stream over the vertex set and the state the driver reads between
// streams. The serial Partitioner and the parallel worker pool differ only
// in how a pass visits vertices and publishes moves; α tempering, the
// refinement stop rule, best-partition tracking and the telemetry are
// written once, in restream.
type restreamer interface {
	// pass streams once at balance weight alpha (only the moved-vertex
	// frontier when frontier is set) and returns the number of moves, the
	// imbalance and PC(P) of the assignment it leaves.
	pass(n int, alpha float64, frontier bool) (moves int, imb, cost float64)
	// assignment is the current assignment, read between passes.
	assignment() []int32
	// initialCost is PC(P) of the starting assignment. The driver asks for
	// it only when the run is cancelled before its first pass; otherwise
	// the last pass's (or the best partition's) recorded cost is exact,
	// because PC(P) is computed from integer pair counts.
	initialCost() float64
	// counters is the kernel's scan counters for the run so far.
	counters() StreamStats
}

// restream runs paper Algorithm 1 over kernel k: α starts at Alpha0 and is
// multiplied by tα after every stream that ends outside the imbalance
// tolerance; once inside, StopAtTolerance stops, and otherwise refinement
// multiplies α by the refinement factor and keeps the lowest-cost
// in-tolerance partition until PC(P) has failed to improve for Patience
// consecutive streams. Frontier restreaming, the Stop hook, History,
// Progress and the Stats flush are handled here for both kernels. sc
// provides the best-partition buffer; pinWalk reports a graph served by
// the per-visit pin walk (over the neighbour-CSR budget).
func restream(h *hypergraph.Hypergraph, cfg *Config, k restreamer, sc *scratch, pinWalk bool) Result {
	nv := h.NumVertices()
	alpha := cfg.Alpha0
	patience := cfg.Patience
	if patience <= 0 {
		patience = 1
	}
	res := Result{Stopped: StoppedMaxIterations}
	// bestParts is the lowest-cost in-tolerance partition seen so far; it is
	// what a stop in the refinement phase returns (the paper's "return
	// P^{n-1}" generalised to patience > 1). Only the refinement policy
	// needs it, so it is sized here, not in acquireScratch.
	if cfg.RefinementPolicy == RefineUntilNoImprovement {
		sc.bestParts = growI32(sc.bestParts, nv)
	}
	bestParts := sc.bestParts
	bestCost := math.Inf(1)
	haveBest := false
	badStreak := 0
	lastCost := 0.0

	lastInTol := false
	consecFrontier := 0
	var passes, frontierPasses int64
	for n := 1; n <= cfg.MaxIterations; n++ {
		if cfg.Stop != nil && cfg.Stop() {
			res.Stopped = StoppedCanceled
			break
		}
		frontier := cfg.FrontierRestreaming && n > 1 && lastInTol &&
			consecFrontier+1 < frontierFullSweepEvery
		if frontier {
			consecFrontier++
			frontierPasses++
		} else {
			consecFrontier = 0
		}
		passes++
		moves, imb, cost := k.pass(n, alpha, frontier)
		res.Iterations = n
		lastCost = cost
		inTol := imb <= cfg.ImbalanceTolerance
		lastInTol = inTol

		st := IterationStats{
			Iteration:   n,
			CommCost:    cost,
			Imbalance:   imb,
			Alpha:       alpha,
			Moves:       moves,
			InTolerance: inTol,
		}
		if cfg.RecordHistory {
			res.History = append(res.History, st)
		}
		if cfg.Progress != nil {
			cfg.Progress(st)
		}

		if !inTol {
			// Outside tolerance: keep tempering up.
			alpha *= cfg.TemperFactor
			continue
		}
		if cfg.RefinementPolicy == StopAtTolerance {
			res.Stopped = StoppedAtTolerance
			break
		}
		// Refinement phase: track the best in-tolerance partition and stop
		// once the monitored metric has failed to improve for `patience`
		// consecutive streams.
		if !haveBest || cost < bestCost {
			bestCost = cost
			copy(bestParts, k.assignment())
			haveBest = true
			badStreak = 0
		} else {
			badStreak++
			if badStreak >= patience {
				res.Stopped = StoppedNoImprovement
				break
			}
		}
		alpha *= cfg.RefinementFactor
	}

	final := k.assignment()
	switch {
	case haveBest:
		final = bestParts
		res.FinalCommCost = bestCost
	case res.Iterations > 0:
		res.FinalCommCost = lastCost
	default:
		res.FinalCommCost = k.initialCost()
	}
	res.Parts = append([]int32(nil), final...)
	res.FinalImbalance = metrics.Imbalance(metrics.Loads(h, res.Parts, len(cfg.CostMatrix)))
	if cfg.Stats != nil {
		t := k.counters()
		t.Passes += passes
		t.FrontierPasses += frontierPasses
		if pinWalk {
			t.PinWalkRuns++
		}
		cfg.Stats.Add(t)
	}
	return res
}

// expectedLoads fills dst with E(i) per partition: totalW/p for
// homogeneous machines, or proportional to the configured capacities.
func expectedLoads(dst []float64, capacities []float64, totalW int64) []float64 {
	if capacities == nil {
		e := float64(totalW) / float64(len(dst))
		if e == 0 {
			e = 1
		}
		for i := range dst {
			dst[i] = e
		}
		return dst
	}
	var capTotal float64
	for _, c := range capacities {
		capTotal += c
	}
	for i, c := range capacities {
		e := float64(totalW) * c / capTotal
		if e <= 0 {
			e = 1
		}
		dst[i] = e
	}
	return dst
}

// imbalance returns the workload imbalance of loads: the paper's max/mean
// ratio for homogeneous partitions, or max_i W(i)/E(i) under heterogeneous
// capacities.
func imbalance(capacities []float64, loads []int64, expected []float64) float64 {
	if capacities == nil {
		return metrics.Imbalance(loads)
	}
	worst := 0.0
	for i, l := range loads {
		if r := float64(l) / expected[i]; r > worst {
			worst = r
		}
	}
	return worst
}
