package metrics

import (
	"math"
	"testing"

	"hyperpraw/internal/hypergraph"
)

// oddGraph builds, through the raw CSR constructor (the Builder would
// normalise them away), the inputs a pin walk has to get right: vertex 1
// repeated inside hyperedge 0, a singleton hyperedge, an empty one, two
// isolated vertices (5 and 6), and two vertices sharing three hyperedges
// of different weights.
func oddGraph(t *testing.T) *hypergraph.Hypergraph {
	t.Helper()
	edges := [][]int32{
		{0, 1, 1, 2}, // repeated pin
		{3},          // singleton
		{},           // empty
		{2, 4},
		{2, 4, 0},
		{4, 2},
	}
	weights := []int64{3, 7, 1, 2, 5, 4}
	nv := 7
	c := hypergraph.RawCSR{NumVertices: nv, NumEdges: len(edges), EdgeWeights: weights}
	c.EdgePtr = []int32{0}
	inc := make([][]int32, nv)
	for e, pins := range edges {
		c.EdgePins = append(c.EdgePins, pins...)
		c.EdgePtr = append(c.EdgePtr, int32(len(c.EdgePins)))
		for _, v := range pins {
			inc[v] = append(inc[v], int32(e))
		}
	}
	c.VtxPtr = []int32{0}
	for _, es := range inc {
		c.VtxEdges = append(c.VtxEdges, es...)
		c.VtxPtr = append(c.VtxPtr, int32(len(c.VtxEdges)))
	}
	h, err := hypergraph.FromCSR("odd", c)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// refNeighbours is the definition Of must reproduce, written out
// independently: walk v's incident hyperedges' pins in order, list each
// vertex other than v at its first occurrence, and in weighted mode credit
// it w(e) for every occurrence.
func refNeighbours(h *hypergraph.Hypergraph, v int, weighted bool) ([]int32, []int64) {
	var nbrs []int32
	var wts []int64
	at := map[int32]int{}
	for _, e := range h.IncidentEdges(v) {
		for _, u := range h.Pins(int(e)) {
			if int(u) == v {
				continue
			}
			i, seen := at[u]
			if !seen {
				i = len(nbrs)
				at[u] = i
				nbrs = append(nbrs, u)
				wts = append(wts, 0)
			}
			wts[i] += h.EdgeWeight(int(e))
		}
	}
	if !weighted {
		wts = nil
	}
	return nbrs, wts
}

// checkOf compares every vertex's served list with the reference: same
// neighbours in the same order, same weights, weights exactly when
// weighted.
func checkOf(t *testing.T, label string, h *hypergraph.Hypergraph, n *Neighbours, w *NeighbourWalk, weighted bool) {
	t.Helper()
	for v := 0; v < h.NumVertices(); v++ {
		got, gotW := n.Of(v, w)
		want, wantW := refNeighbours(h, v, weighted)
		if len(got) != len(want) || (len(want) > 0 && (gotW != nil) != weighted) {
			t.Fatalf("%s: vertex %d: neighbours %v/%v, want %v/%v", label, v, got, gotW, want, wantW)
		}
		for i := range want {
			if got[i] != want[i] || (wantW != nil && gotW[i] != wantW[i]) {
				t.Fatalf("%s: vertex %d: neighbours %v/%v, want %v/%v", label, v, got, gotW, want, wantW)
			}
		}
	}
}

// TestNeighboursMatchPinWalkReference is the parity property of the one
// neighbour enumeration: served from the CSR or by the pin walk, every
// vertex's list equals the reference in content, first-encounter order and
// (weighted) summed weight — on random graphs and on repeated pins,
// singleton and empty hyperedges and isolated vertices. One Neighbours and
// one NeighbourWalk are reused across all of them, larger graph before
// smaller, as a pooled kernel scratch is.
func TestNeighboursMatchPinWalkReference(t *testing.T) {
	big, _, _ := randomInstance(3, 400, 700, 6, true)
	small, _, _ := randomInstance(4, 60, 80, 6, true)
	graphs := []*hypergraph.Hypergraph{big, small, oddGraph(t)}
	var n Neighbours
	var w NeighbourWalk
	for gi, h := range graphs {
		for _, weighted := range []bool{true, false} {
			if !n.Build(h, weighted, &w, nil, nil) {
				t.Fatalf("graph %d does not fit the CSR budget", gi)
			}
			checkOf(t, "csr", h, &n, &w, weighted)
			n.UsePinWalk(h, weighted)
			checkOf(t, "pin walk", h, &n, &w, weighted)
		}
	}
	// The odd graph's weighted lists, pinned by hand: vertex 2 meets 0
	// (w 3, then 5), 1 (w 3 twice, the repeated pin) and 4 (w 2+5+4).
	h := oddGraph(t)
	n.Build(h, true, &w, nil, nil)
	nbrs, wts := n.Of(2, &w)
	if len(nbrs) != 3 || nbrs[0] != 0 || nbrs[1] != 1 || nbrs[2] != 4 ||
		wts[0] != 8 || wts[1] != 6 || wts[2] != 11 {
		t.Fatalf("vertex 2: %v/%v, want [0 1 4]/[8 6 11]", nbrs, wts)
	}
	for _, v := range []int{3, 5, 6} {
		if nbrs, _ := n.Of(v, &w); len(nbrs) != 0 {
			t.Fatalf("vertex %d: neighbours %v, want none", v, nbrs)
		}
	}
}

// TestNeighboursBudget covers the over-budget path: a build whose lists
// exceed the budget stops materialising partway, serves every vertex by
// the pin walk instead, still fills the pair counts of the whole vertex
// set, and never holds more entries than the budget.
func TestNeighboursBudget(t *testing.T) {
	for _, weighted := range []bool{false, true} {
		h, parts, cost := randomInstance(9, 300, 450, 8, weighted)
		k := len(cost)
		var full Neighbours
		var w NeighbourWalk
		full.Build(h, weighted, &w, nil, nil)
		total := len(full.adj)
		for _, budget := range []int{0, total / 3, total - 1, total} {
			var n Neighbours
			if weighted {
				// A scratch last built unweighted has list capacity but
				// no weight capacity; the weights must respect the budget
				// too.
				n.build(h, false, &w, nil, nil, budget)
			}
			var m PairCounts
			m.Reset(k)
			fits := n.build(h, weighted, &w, &m, parts, budget)
			if fits != (budget >= total) {
				t.Fatalf("weighted=%v budget=%d of %d: fits=%v", weighted, budget, total, fits)
			}
			if cap(n.adj) > budget || cap(n.wt) > budget {
				t.Fatalf("weighted=%v budget=%d: CSR capacity %d/%d", weighted, budget, cap(n.adj), cap(n.wt))
			}
			if !equalCounts(m.N, brutePairs(h, parts, k, weighted)) {
				t.Fatalf("weighted=%v budget=%d: pair counts differ from brute force", weighted, budget)
			}
			checkOf(t, "budget", h, &n, &w, weighted)
		}
	}
	if got := csrBudget(oddGraph(t)); got != csrBudgetFloor {
		t.Fatalf("small graph budget %d, want the %d floor", got, csrBudgetFloor)
	}
}

// TestNeighbourWalkEpochWraparound covers the walk's stamp reset: at epoch
// MaxInt32−1 the next walk must zero the stamps and restart, and both that
// walk and the one after it must still list exactly the reference.
func TestNeighbourWalkEpochWraparound(t *testing.T) {
	h, _, _ := randomInstance(5, 120, 160, 4, true)
	var n Neighbours
	var w NeighbourWalk
	n.UsePinWalk(h, true)
	for v := 0; v < 10; v++ {
		n.Of(v, &w)
	}
	w.epoch = math.MaxInt32 - 1
	for _, v := range []int{7, 8} {
		got, gotW := n.Of(v, &w)
		want, wantW := refNeighbours(h, v, true)
		if len(got) != len(want) {
			t.Fatalf("vertex %d: %v, want %v", v, got, want)
		}
		for i := range want {
			if got[i] != want[i] || gotW[i] != wantW[i] {
				t.Fatalf("vertex %d: %v/%v, want %v/%v", v, got, gotW, want, wantW)
			}
		}
	}
	if w.epoch < 1 || w.epoch > 2 {
		t.Fatalf("epoch %d after wraparound, want 2", w.epoch)
	}
}
