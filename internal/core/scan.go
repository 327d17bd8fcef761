package core

import (
	"math"
	"sync/atomic"

	"hyperpraw/internal/hypergraph"
	"hyperpraw/internal/metrics"
)

// scanner scores one vertex's candidate partitions (paper eq 1/3) for both
// kernels. It reads the assignment and the neighbour lists to gather X_j(v),
// and a load view to score W(i)/E(i): the serial Partitioner's exact loads,
// or a parallel worker's epoch-refreshed view. Every pick, the per-vertex
// strategy dispatch and the per-stream fallback governor live here once;
// the kernels only decide which vertices to visit and how a move is
// published.
type scanner struct {
	h        *hypergraph.Hypergraph
	sc       *scratch
	cidx     *CostIndex
	cost     [][]float64
	p        int
	nbrs     *metrics.Neighbours
	parts    []int32 // the assignment gather reads
	loads    []int64 // the load view every score reads
	expected []float64
	penalty  float64 // Config.MigrationPenalty
	// eligible caches whether the touched-only scan pays off for this
	// (cost structure, p) pair; see fastScanEligible.
	eligible bool

	// Hoisted closures for the min-load index (allocated once, not per
	// vertex).
	loadOf    func(int32) int64
	untouched func(int32) bool

	// Per-stream state, reset by begin: whether the fast scans run this
	// stream, whether the governor has switched them off, the work they
	// have done so far, and the strategy tally flushed by end.
	fast, off                         bool
	tried, work                       int
	nExh, nUni, nBlk, nBnd, nFallback int64

	// tally accumulates kernel activity counters across streams; the
	// driver flushes it into Config.Stats. Always maintained (the
	// increments are noise next to the scoring arithmetic) so benchmarks
	// measure the same code path the serving layer runs.
	tally StreamStats
}

// init binds the scanner to one kernel's state. cfg must already have
// passed New's validation.
func (s *scanner) init(h *hypergraph.Hypergraph, cfg *Config, cidx *CostIndex, sc *scratch,
	nbrs *metrics.Neighbours, parts []int32, loads []int64, expected []float64) {
	*s = scanner{
		h: h, sc: sc, cidx: cidx, cost: cfg.CostMatrix, p: len(cfg.CostMatrix),
		nbrs: nbrs, parts: parts, loads: loads, expected: expected,
		penalty:  cfg.MigrationPenalty,
		eligible: fastScanEligible(cfg, cidx),
	}
	s.loadOf = func(i int32) int64 { return s.loads[i] }
	s.untouched = func(i int32) bool { return s.sc.pstamp[i] != s.sc.epoch }
}

// fastScanEligible decides whether the touched-only scan can beat the
// exhaustive one for this (cost structure, p) pair.
func fastScanEligible(cfg *Config, cidx *CostIndex) bool {
	p := len(cfg.CostMatrix)
	if cfg.forceExhaustive || p <= 1 {
		return false
	}
	if cfg.forceTouchedOnly {
		return true
	}
	switch cidx.kind {
	case costUniform:
		return p >= fastScanMinPartitions
	case costBlocked:
		return p >= blockedScanMinPartitions
	default:
		return p >= boundedScanMinPartitions
	}
}

// begin prepares one stream at balance weight alpha. The fast scans need
// α > 0 — the untouched-candidate ordering assumes load is a penalty —
// which only a caller-supplied Alpha0 ≤ 0 can violate; that falls back to
// the exhaustive scan.
func (s *scanner) begin(alpha float64) {
	s.fast = s.eligible && alpha > 0
	s.off = false
	s.tried, s.work = 0, 0
	s.nExh, s.nUni, s.nBlk, s.nBnd, s.nFallback = 0, 0, 0, 0, 0
	if s.fast {
		// The uniform and bounded strategies keep the global min-load
		// heap; the blocked scan keeps flat per-block argmin caches.
		if s.cidx.kind == costBlocked {
			s.sc.resetBlockState(len(s.cidx.blocks))
		} else {
			s.sc.minIdx.reset(s.expected, s.loadOf)
		}
	}
}

// viewRefreshed invalidates every cached minimum keyed on the old load
// view, after a parallel worker re-read the shared counters mid-stream.
func (s *scanner) viewRefreshed() {
	if !s.fast || s.off {
		return
	}
	if s.cidx.kind == costBlocked {
		for b := range s.sc.blockStale {
			s.sc.blockStale[b] = true
		}
	} else {
		s.sc.minIdx.reset(s.expected, s.loadOf)
	}
}

// end flushes one stream's counters into the tally.
func (s *scanner) end(moves, visited int64) {
	t := &s.tally
	t.FrontierVisited += visited
	t.Moves += moves
	t.ScanExhaustive += s.nExh
	t.ScanUniform += s.nUni
	t.ScanBlocked += s.nBlk
	t.ScanBounded += s.nBnd
	t.ExhaustiveFallbacks += s.nFallback
	if s.cidx.kind == costBlocked {
		t.BlockedWork += int64(s.work)
	} else {
		t.BoundedPops += int64(s.work)
	}
}

// pick returns the best partition for vertex v, currently in cur, from the
// X_j(v) just gathered. It dispatches on the cost-tier index's
// classification of the matrix: uniform → pickUniform (single heap pop),
// blocked (hierarchical) → pickBlocked (tiered block walk), unstructured →
// pickBounded (scalar-bound pruned scan). Every fast scan is move-for-move
// identical to the exhaustive O(p) reference (pickExhaustive) but costs far
// less per vertex while its pruning works; once a stream's observed work
// says it does not, the rest of the stream falls back to the exhaustive
// scan and the next stream re-evaluates.
func (s *scanner) pick(v int, cur int32, alpha float64) int32 {
	penalty := 0.0
	if s.penalty > 0 {
		penalty = s.penalty * float64(s.h.VertexWeight(v))
	}
	switch {
	case !s.fast || s.off:
		s.nExh++
		if s.off {
			s.nFallback++
		}
		return s.pickExhaustive(cur, alpha, penalty)
	case s.cidx.kind == costUniform:
		s.nUni++
		return s.pickUniform(cur, alpha, penalty)
	case s.cidx.kind == costBlocked:
		best, work := s.pickBlocked(cur, alpha, penalty)
		s.nBlk++
		s.tried++
		s.work += work
		// The block walk wins while pruning keeps the scored set small; if
		// the observed work approaches the exhaustive scan's p, stop paying
		// the heap traffic for the rest of this stream.
		if s.tried >= 128 && s.work > s.tried*(len(s.cidx.blocks)+s.p/2) {
			s.off = true
		}
		return best
	default:
		best, pops := s.pickBounded(cur, alpha, penalty)
		s.nBnd++
		s.tried++
		s.work += pops
		// The pruned scan only beats the exhaustive one when the load bound
		// closes almost immediately; once the observed pop work says
		// otherwise (α decayed, loads equalised), stop paying the heap
		// traffic for the rest of this stream.
		if s.tried >= 128 && s.work > 3*s.tried {
			s.off = true
		}
		return best
	}
}

// noteMove keeps the fast scans' load minima current after a move from
// partition from to partition to has been applied to the load view.
func (s *scanner) noteMove(from, to int32) {
	if !s.fast || s.off {
		return
	}
	if s.cidx.kind == costBlocked {
		s.sc.blockNoteMove(s.cidx, from, to, float64(s.loads[from])/s.expected[from])
	} else {
		s.sc.minIdx.update(from, s.loads[from])
		s.sc.minIdx.update(to, s.loads[to])
	}
}

// gather fills xCounts/touched with X_j(v): the number of distinct
// neighbours of v in each partition j (paper eq 4), or with UseEdgeWeights
// their summed shared hyperedge weight — every (edge, neighbour) incidence
// contributes w(e), modelling per-edge communication volume (§8.2). It
// iterates v's neighbour list, so partitions are touched in the order a pin
// walk first meets them and, the weights being exact integers, every sum
// equals the pin walk's bit for bit. It returns the list for markDirty.
//
// Neighbour partitions are read with atomic loads, so one gather serves
// the serial kernel and parallel workers streaming against a shared
// assignment alike; on amd64 an aligned 32-bit atomic load compiles to a
// plain load. Partition-stamp wraparound (after 2^31−2 gathers,
// e.g. a pooled scratch serving jobs for days) is handled by
// scratch.bumpEpoch, which zeroes the stamps and restarts the epoch at 1.
func (s *scanner) gather(v int) []int32 {
	sc := s.sc
	epoch := sc.bumpEpoch()
	sc.touched = sc.touched[:0]
	nbrs, wts := s.nbrs.Of(v, &sc.walk)
	for i, u := range nbrs {
		part := atomic.LoadInt32(&s.parts[u])
		if sc.pstamp[part] != epoch {
			sc.pstamp[part] = epoch
			sc.xCounts[part] = 0
			sc.touched = append(sc.touched, part)
		}
		if wts == nil {
			sc.xCounts[part]++
		} else {
			sc.xCounts[part] += float64(wts[i])
		}
	}
	return nbrs
}

// pickExhaustive scores every partition: the original O(p) kernel and the
// reference that the touched-only scans must match move for move. penalty
// is the migration cost charged to every partition but cur.
func (s *scanner) pickExhaustive(cur int32, alpha, penalty float64) int32 {
	sc := s.sc
	p := s.p

	// Number of partitions holding neighbours of v; A_i(v) per eq 3.
	nbrParts := float64(len(sc.touched))

	bestPart := int32(0)
	bestVal := math.Inf(-1)
	for i := 0; i < p; i++ {
		// T_i(v) = Σ_j X_j(v)·C(i,j); C(i,i)=0 removes the self term.
		t := 0.0
		ci := s.cost[i]
		for _, j := range sc.touched {
			t += sc.xCounts[j] * ci[j]
		}
		// N_i(v): neighbour partitions other than i, normalised by p.
		ni := nbrParts
		if sc.pstamp[i] == sc.epoch {
			ni-- // v has neighbours in i itself; those don't count
		}
		ni /= float64(p)

		val := -ni*t - alpha*float64(s.loads[i])/s.expected[i]
		if penalty > 0 && int32(i) != cur {
			val -= penalty
		}
		if val > bestVal || (val == bestVal && int32(i) == cur) {
			bestVal = val
			bestPart = int32(i)
		}
	}
	return bestPart
}

// considerCandidate folds candidate i with value val into the running
// (bestVal, bestPart) selection, reproducing pickExhaustive's outcome from
// an arbitrary evaluation order: the exhaustive ascending-index loop returns
// the current partition if it ties the maximum, otherwise the lowest-index
// maximizer.
func considerCandidate(bestVal *float64, bestPart *int32, i, cur int32, val float64) {
	if *bestPart < 0 || val > *bestVal ||
		(val == *bestVal && (i == cur || (*bestPart != cur && i < *bestPart))) {
		*bestVal = val
		*bestPart = i
	}
}

// pickUniform is the touched-only scan for uniform off-diagonal cost
// matrices (HyperPRAW-basic, and the uniform benchmarks). Every untouched
// partition shares one communication term, so the best untouched candidate
// is exactly the minimum of W(i)/E(i) — ties on the lowest index — which the
// min-load index supplies without scanning all p. Only |touched| + 2
// candidates (touched partitions, that fallback, and the vertex's current
// partition, which never pays the migration penalty) are scored, each with
// pickExhaustive's floating-point arithmetic operation for operation.
func (s *scanner) pickUniform(cur int32, alpha, penalty float64) int32 {
	sc := s.sc
	c := s.cidx.uniformC
	p := float64(s.p)
	nbrParts := float64(len(sc.touched))
	// T_i(v) of any untouched candidate, accumulated in touched order like
	// the exhaustive loop (C(i,j) = c for every touched j, since i ≠ j).
	tU := 0.0
	for _, j := range sc.touched {
		tU += sc.xCounts[j] * c
	}

	bestPart := int32(-1)
	bestVal := math.Inf(-1)
	for _, i := range sc.touched {
		// T_i for touched i drops the j == i term, which the exhaustive loop
		// adds as xCounts[i]·C(i,i) = +0.0 — a bitwise no-op.
		t := 0.0
		for _, j := range sc.touched {
			if j != i {
				t += sc.xCounts[j] * c
			}
		}
		ni := (nbrParts - 1) / p
		val := -ni*t - alpha*float64(s.loads[i])/s.expected[i]
		if penalty > 0 && i != cur {
			val -= penalty
		}
		considerCandidate(&bestVal, &bestPart, i, cur, val)
	}
	niU := nbrParts / p
	if e, ok := sc.minIdx.popBestUntouched(s.untouched); ok {
		val := -niU*tU - alpha*float64(s.loads[e.idx])/s.expected[e.idx]
		if penalty > 0 && e.idx != cur {
			val -= penalty
		}
		considerCandidate(&bestVal, &bestPart, e.idx, cur, val)
	}
	sc.minIdx.restore()
	if sc.pstamp[cur] != sc.epoch {
		val := -niU*tU - alpha*float64(s.loads[cur])/s.expected[cur]
		considerCandidate(&bestVal, &bestPart, cur, cur, val)
	}
	return bestPart
}

// pickBounded is the touched-only scan for general cost matrices (the
// profiled HyperPRAW-aware case). Touched partitions and the current one are
// scored exactly; untouched candidates are drawn from the min-load index in
// ascending W(i)/E(i) order and scored exactly until an upper bound on every
// remaining candidate — communication no cheaper than the smallest off-
// diagonal entry allows, load no lighter than the next candidate's — falls
// below the best value seen. The bound discriminates whenever the α-weighted
// load spread exceeds the communication-term spread (the tempering phase,
// and refinement on unbalanced loads); when it cannot (α decayed and loads
// equalised), the pop budget trips and the vertex falls back to the
// exhaustive scan, bounding the overhead at a fraction of the O(p) cost
// instead of letting the heap churn exceed it. pops reports the candidates
// examined, so the stream can stop trying once pop work dominates.
func (s *scanner) pickBounded(cur int32, alpha, penalty float64) (best int32, pops int) {
	sc := s.sc
	p := float64(s.p)
	nbrParts := float64(len(sc.touched))
	// Σ_j X_j(v): any candidate's communication term is ≥ minOff times this.
	sumX := 0.0
	for _, j := range sc.touched {
		sumX += sc.xCounts[j]
	}
	loS := s.cidx.minOff * sumX
	niU := nbrParts / p

	bestPart := int32(-1)
	bestVal := math.Inf(-1)
	score := func(i int32, isTouched bool) {
		t := 0.0
		ci := s.cost[i]
		for _, j := range sc.touched {
			t += sc.xCounts[j] * ci[j]
		}
		ni := nbrParts
		if isTouched {
			ni--
		}
		ni /= p
		val := -ni*t - alpha*float64(s.loads[i])/s.expected[i]
		if penalty > 0 && i != cur {
			val -= penalty
		}
		considerCandidate(&bestVal, &bestPart, i, cur, val)
	}
	for _, i := range sc.touched {
		score(i, true)
	}
	if sc.pstamp[cur] != sc.epoch {
		score(cur, false)
	}
	budget := boundedPopBudget(s.p)
	for ; budget > 0; budget-- {
		e, ok := sc.minIdx.popBestUntouched(s.untouched)
		if !ok {
			break
		}
		pops++
		// Upper bound for e and everything after it (larger W/E); inflated
		// so rounding can only widen the scan, never cut a winner.
		ub := -niU*loS - alpha*e.q
		ub += boundMargin * (math.Abs(ub) + 1)
		if ub < bestVal {
			break
		}
		score(e.idx, false)
	}
	sc.minIdx.restore()
	if budget == 0 {
		// The bound is not pruning on this vertex; the exhaustive reference
		// costs less than draining the heap and returns the identical pick.
		s.tally.ExhaustiveFallbacks++
		return s.pickExhaustive(cur, alpha, penalty), pops
	}
	return bestPart, pops
}

// boundedPopBudget is how many untouched candidates pickBounded examines
// before conceding that the load bound is not pruning and handing the vertex
// to the exhaustive scan.
func boundedPopBudget(p int) int {
	b := p / 8
	if b < 8 {
		b = 8
	}
	return b
}

// pickBlocked is the tiered touched-only scan for hierarchical (blocked)
// cost matrices, the profiled HyperPRAW-aware case the CostIndex was built
// for. Touched partitions, the current one, and the globally least-loaded
// partition's best available member (the load champion) are scored
// exactly up front. The remaining candidates are then walked block by
// block in ascending communication floor relative to the vertex's
// heaviest neighbour partition j*, with every block's floor sum
// Σ_j X_j·floorsTo[j][b] precomputed in one contiguous pass. A block is
// rejected in O(1) when even (floor comm, exact min member load) cannot
// beat the incumbent — the floor sums are tight to within-block noise,
// which is what the scalar min(C)·ΣX bound of pickBounded cannot offer;
// a surviving block scores members in ascending (W(i)/E(i), i) until the
// same bound closes. For an exact block the floor sum IS every member's
// communication term, so the first member scored (the block's
// lowest-(load, index) one, which dominates its siblings under the
// exhaustive tie-break) settles the whole block in O(1) after the shared
// floor pass.
//
// work approximates the scan's cost in units of one exhaustive candidate
// evaluation, so the stream can fall back when the walk stops pruning.
// Move-for-move parity with pickExhaustive holds by the same argument as
// the other fast scans: every scored candidate uses the identical
// floating-point evaluation, pruning is strict (a pruned candidate is
// strictly worse than the incumbent, margin-inflated against rounding),
// and considerCandidate reproduces the exhaustive tie-break from any
// evaluation order.
//
// The per-block argmin caches are per scratch. On a parallel worker under
// block-aligned ownership they cover mostly the worker's own blocks'
// loads, so peer moves rarely invalidate them between sync points; any
// residual staleness only mis-orders the candidate search, consistent
// with the GraSP relaxation.
func (s *scanner) pickBlocked(cur int32, alpha, penalty float64) (best int32, work int) {
	sc := s.sc
	ci := s.cidx
	p := float64(s.p)
	nbrParts := float64(len(sc.touched))
	epoch := sc.epoch
	// j*: the touched partition holding the most neighbour mass — the
	// anchor whose block order the walk follows (any anchor is correct;
	// the heaviest makes the floor gaps steepest). Defaults to 0 for an
	// isolated vertex, where every floor sum is zero anyway.
	jstar := int32(0)
	xStar := math.Inf(-1)
	for _, j := range sc.touched {
		if sc.xCounts[j] > xStar {
			xStar, jstar = sc.xCounts[j], j
		}
	}
	niU := nbrParts / p

	bestPart := int32(-1)
	bestVal := math.Inf(-1)
	score := func(i int32, isTouched bool, tExact float64, haveT bool) {
		t := tExact
		if !haveT {
			t = 0.0
			row := s.cost[i]
			for _, j := range sc.touched {
				t += sc.xCounts[j] * row[j]
			}
		}
		ni := nbrParts
		if isTouched {
			ni--
		}
		ni /= p
		val := -ni*t - alpha*float64(s.loads[i])/s.expected[i]
		if penalty > 0 && i != cur {
			val -= penalty
		}
		sc.sstamp[i] = epoch
		considerCandidate(&bestVal, &bestPart, i, cur, val)
	}
	for _, i := range sc.touched {
		score(i, true, 0, false)
	}
	if sc.pstamp[cur] != epoch {
		score(cur, false, 0, false)
	}

	// Refresh stale block minima and find the champion block — the one
	// holding the globally least-loaded partition. Scoring its best
	// available member first hands every later bound the strongest load
	// incumbent the candidate set can produce.
	champ := int32(-1)
	q0 := math.Inf(1)
	for b := range sc.blockMinQ {
		if sc.blockStale[b] {
			s.refreshBlockMin(int32(b))
			work++
		}
		if sc.blockMinQ[b] < q0 {
			q0, champ = sc.blockMinQ[b], int32(b)
		}
	}
	if champ >= 0 {
		// The champion's cached argmin is usually still available (only
		// touched/current partitions are scored so far) — no scan needed.
		if i := sc.blockMinIdx[champ]; sc.pstamp[i] != epoch && sc.sstamp[i] != epoch {
			score(i, false, 0, false)
		} else if i, _, ok := s.minAvailableInBlock(champ); ok {
			work++
			score(i, false, 0, false)
		}
	}

	// All block floor sums in one contiguous pass, accumulated in touched
	// order like every exact evaluation: tLBAll[b] lower-bounds any
	// member's T_i, and IS the member's T_i when the block is exact.
	tLBAll := sc.tLBAll
	for b := range tLBAll {
		tLBAll[b] = 0
	}
	for _, j := range sc.touched {
		x := sc.xCounts[j]
		floors := ci.floorsTo[j]
		for b := range tLBAll {
			tLBAll[b] += x * floors[b]
		}
	}
	work += len(sc.touched) * len(tLBAll) / 64

	for _, b := range ci.blockOrder[jstar] {
		tLB := tLBAll[b]
		// O(1) block rejection: blockMinQ[b] is the exact minimum
		// normalised load over the block's members (a lower bound for
		// the unscored ones), so if even (floor comm, min load) cannot
		// beat the incumbent, nothing in the block can. Inflated so
		// rounding can only widen the scan.
		ubBlock := -niU*tLB - alpha*sc.blockMinQ[b] - penalty
		ubBlock += boundMargin * (math.Abs(ubBlock) + 1)
		if ubBlock < bestVal {
			s.tally.BlockRejections++
			continue
		}
		exact := ci.blocks[b].exact
		first := true
		for {
			var i int32
			var q float64
			var ok bool
			// The cached argmin doubles as the block's first candidate
			// when still available, skipping one member scan.
			if i = sc.blockMinIdx[b]; first && sc.pstamp[i] != epoch && sc.sstamp[i] != epoch {
				q, ok = sc.blockMinQ[b], true
			} else {
				i, q, ok = s.minAvailableInBlock(b)
				work++
			}
			first = false
			if !ok {
				break
			}
			// Upper bound for this member and everything after it in the
			// block (heavier load, communication no cheaper than the
			// floor).
			ub := -niU*tLB - alpha*q - penalty
			ub += boundMargin * (math.Abs(ub) + 1)
			if ub < bestVal {
				break
			}
			score(i, false, tLB, exact)
			if exact {
				// Exact block: every sibling shares this T_i, so the
				// lowest-(load, index) member just scored dominates them
				// under the exhaustive tie-break.
				s.tally.ExactSettles++
				break
			}
		}
	}
	return bestPart, work
}

// refreshBlockMin recomputes block b's cached (min load, argmin) from the
// load view.
func (s *scanner) refreshBlockMin(b int32) {
	sc := s.sc
	bq, bi := math.Inf(1), int32(-1)
	for _, i := range s.cidx.blocks[b].members {
		if q := float64(s.loads[i]) / s.expected[i]; q < bq {
			bq, bi = q, i
		}
	}
	sc.blockMinQ[b], sc.blockMinIdx[b] = bq, bi
	sc.blockStale[b] = false
}

// minAvailableInBlock returns block b's least-loaded member (ties to the
// lowest index) that is neither touched nor already scored for the
// current vertex; ok is false when every member is spoken for.
func (s *scanner) minAvailableInBlock(b int32) (idx int32, q float64, ok bool) {
	sc := s.sc
	epoch := sc.epoch
	bq, bi := math.Inf(1), int32(-1)
	for _, i := range s.cidx.blocks[b].members {
		if sc.pstamp[i] == epoch || sc.sstamp[i] == epoch {
			continue
		}
		if qi := float64(s.loads[i]) / s.expected[i]; qi < bq {
			bq, bi = qi, i
		}
	}
	if bi < 0 {
		return 0, 0, false
	}
	return bi, bq, true
}
