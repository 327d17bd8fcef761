// Package metrics computes partition quality metrics: the cut-based metrics
// hypergraph partitioners traditionally optimise (hyperedge cut, sum of
// external degrees) and the paper's architecture-sensitive "partitioning
// communication cost" (eq 5), which weighs each cross-partition neighbour
// relation by the physical cost of the link between the two partitions.
//
// PC(P) has one implementation: a p×p integer pair-count matrix M
// (PairCounts, built by Neighbours.Count range scans or kept current by a
// kernel) dotted with the cost matrix in a fixed row-major order
// (PairCounts.Cost). Evaluate, the serial kernel's per-pass convergence
// check and the parallel kernel's barrier reduction all go through it, so
// the same partition always gets the same cost, bit for bit.
package metrics

import (
	"fmt"

	"hyperpraw/internal/hypergraph"
)

// ValidatePartition checks that parts assigns every vertex of h to a
// partition in [0, k).
func ValidatePartition(h *hypergraph.Hypergraph, parts []int32, k int) error {
	if len(parts) != h.NumVertices() {
		return fmt.Errorf("metrics: partition length %d, want %d vertices", len(parts), h.NumVertices())
	}
	if k <= 0 {
		return fmt.Errorf("metrics: non-positive partition count %d", k)
	}
	for v, p := range parts {
		if p < 0 || int(p) >= k {
			return fmt.Errorf("metrics: vertex %d assigned to partition %d, want [0,%d)", v, p, k)
		}
	}
	return nil
}

// Loads returns the total vertex weight assigned to each partition.
func Loads(h *hypergraph.Hypergraph, parts []int32, k int) []int64 {
	loads := make([]int64, k)
	for v := 0; v < h.NumVertices(); v++ {
		loads[parts[v]] += h.VertexWeight(v)
	}
	return loads
}

// Imbalance returns the paper's total imbalance: the maximum partition load
// divided by the mean partition load. A perfectly balanced partition scores
// 1.0; the metric is always >= 1 for a non-empty hypergraph.
func Imbalance(loads []int64) float64 {
	if len(loads) == 0 {
		return 1
	}
	var total, max int64
	for _, l := range loads {
		total += l
		if l > max {
			max = l
		}
	}
	if total == 0 {
		return 1
	}
	mean := float64(total) / float64(len(loads))
	return float64(max) / mean
}

// Connectivity returns λ(e): the number of distinct partitions among the
// pins of hyperedge e. It allocates a k-sized seen set per call; the
// whole-hypergraph metrics below share one stamped scanner instead.
func Connectivity(h *hypergraph.Hypergraph, parts []int32, k, e int) int {
	seen := make([]bool, k)
	lambda := 0
	for _, v := range h.Pins(e) {
		p := parts[v]
		if !seen[p] {
			seen[p] = true
			lambda++
		}
	}
	return lambda
}

// cutMetrics holds the three λ-based metrics, computed together by
// scanCuts from one λ(e) evaluation per hyperedge.
type cutMetrics struct {
	cut, soed, lambdaMinusOne int64
}

// scanCuts walks every hyperedge once, stamping the partitions of its pins
// with a per-edge epoch (O(1) amortised clearing), and folds λ(e) into all
// three cut metrics.
func scanCuts(h *hypergraph.Hypergraph, parts []int32, k int) cutMetrics {
	stamp := make([]int, k)
	var m cutMetrics
	for e := 0; e < h.NumEdges(); e++ {
		epoch := e + 1
		lambda := int64(0)
		for _, v := range h.Pins(e) {
			if p := parts[v]; stamp[p] != epoch {
				stamp[p] = epoch
				lambda++
			}
		}
		if lambda > 1 {
			w := h.EdgeWeight(e)
			m.cut += w
			m.soed += lambda * w
			m.lambdaMinusOne += (lambda - 1) * w
		}
	}
	return m
}

// HyperedgeCut returns the weighted count of hyperedges that span more than
// one partition (the paper's "hyperedge cut", Fig 4A).
func HyperedgeCut(h *hypergraph.Hypergraph, parts []int32, k int) int64 {
	return scanCuts(h, parts, k).cut
}

// SOED returns the Sum Of External Degrees (Fig 4B): every hyperedge that
// spans λ > 1 partitions is incident-but-not-internal to each of those λ
// partitions, contributing λ·w(e).
func SOED(h *hypergraph.Hypergraph, parts []int32, k int) int64 {
	return scanCuts(h, parts, k).soed
}

// ConnectivityMinusOne returns the (λ−1) metric, Σ_e w(e)·(λ(e)−1): the
// standard proxy for total communication volume in the hypergraph
// partitioning literature. Reported alongside the paper's metrics for
// completeness.
func ConnectivityMinusOne(h *hypergraph.Hypergraph, parts []int32, k int) int64 {
	return scanCuts(h, parts, k).lambdaMinusOne
}

// PairCounts is the pair-count matrix M behind PC(P): M[a][b] is the number
// of ordered (v, u) neighbour pairs with part(v) = a and part(u) = b. In
// weighted mode a pair instead contributes Σ w(e) over the hyperedges v and
// u share. The counts are integers, so partial matrices over disjoint
// vertex ranges merge exactly, and a kernel can keep M current move by move
// instead of rescanning the hypergraph. Stored row-major in N (length P²);
// the weighted sums must stay below 2^63.
type PairCounts struct {
	P int
	N []int64
}

// Reset sizes m for p partitions and zeroes every count, reusing the
// backing array when it is large enough.
func (m *PairCounts) Reset(p int) {
	if cap(m.N) < p*p {
		m.N = make([]int64, p*p)
	} else {
		m.N = m.N[:p*p]
		clear(m.N)
	}
	m.P = p
}

// Add adds o's counts into m; both must be sized for the same p.
func (m *PairCounts) Add(o *PairCounts) {
	for i, n := range o.N {
		m.N[i] += n
	}
}

// Cost returns PC(P) = Σ_a Σ_b M[a][b]·C[a][b], summed in row-major order.
// This is the one definition of PC(P) every caller shares: equal counts
// give bit-identical costs, however they were accumulated.
func (m *PairCounts) Cost(cost [][]float64) float64 {
	total := 0.0
	for a, row := range cost {
		counts := m.N[a*m.P : (a+1)*m.P]
		for b, c := range row {
			total += float64(counts[b]) * c
		}
	}
	return total
}

// CommCost returns the partitioning communication cost PC(P) of eq 5:
//
//	PC(P) = Σ_i Σ_{v ∈ P_i} T_i(v),   T_i(v) = Σ_j X_j(v)·C(i,j)
//
// where X_j(v) counts the distinct neighbours of v (vertices sharing a
// hyperedge) residing in partition j and C is the (physical or uniform) cost
// matrix with zero diagonal. Intuitively it is the number of cross-partition
// neighbour relations, each weighted by how expensive the link between the
// two partitions is. Grouping the terms by partition pair gives
// PC(P) = Σ_a Σ_b M[a][b]·C(a,b) with M the PairCounts of parts, which is
// how it is evaluated.
func CommCost(h *hypergraph.Hypergraph, parts []int32, cost [][]float64) float64 {
	return scanCost(h, parts, cost, false)
}

// WeightedCommCost is the hyperedge-weighted variant of CommCost used with
// the paper's §8.2 extension for asymmetric communication: every
// (hyperedge, neighbour) incidence contributes w(e)·C(part(v), part(u))
// rather than counting each distinct neighbour once. With unit weights it
// still differs from CommCost by counting a neighbour once per shared edge,
// which models per-edge communication volume.
func WeightedCommCost(h *hypergraph.Hypergraph, parts []int32, cost [][]float64) float64 {
	return scanCost(h, parts, cost, true)
}

func scanCost(h *hypergraph.Hypergraph, parts []int32, cost [][]float64, weighted bool) float64 {
	var m PairCounts
	m.Reset(len(cost))
	var n Neighbours
	n.UsePinWalk(h, weighted)
	n.Count(&m, parts, &NeighbourWalk{}, 0, h.NumVertices())
	return m.Cost(cost)
}

// QualityReport bundles every quality metric for one partition, as reported
// in Fig 4.
type QualityReport struct {
	Algorithm      string
	Hypergraph     string
	K              int
	HyperedgeCut   int64
	SOED           int64
	LambdaMinusOne int64
	CommCost       float64 // PC(P) with the physical cost matrix
	Imbalance      float64
}

// Evaluate computes a full QualityReport for parts with the given physical
// cost matrix. The three λ-based metrics share one scan of the hyperedges.
func Evaluate(h *hypergraph.Hypergraph, parts []int32, cost [][]float64) QualityReport {
	k := len(cost)
	cuts := scanCuts(h, parts, k)
	return QualityReport{
		Hypergraph:     h.Name(),
		K:              k,
		HyperedgeCut:   cuts.cut,
		SOED:           cuts.soed,
		LambdaMinusOne: cuts.lambdaMinusOne,
		CommCost:       CommCost(h, parts, cost),
		Imbalance:      Imbalance(Loads(h, parts, k)),
	}
}
