package metrics

import (
	"math"

	"hyperpraw/internal/hypergraph"
)

// csrBudgetFloor is the smallest neighbour-CSR budget, in entries: 2^20
// neighbour ids (4 MiB), enough for every small graph however dense.
const csrBudgetFloor = 1 << 20

// csrBudget is the most entries Build materialises for h: the larger of
// twice the pin count (the size of h's own pin and incidence arrays) and
// csrBudgetFloor, capped so int32 offsets cannot overflow.
func csrBudget(h *hypergraph.Hypergraph) int {
	b := 2 * h.NumPins()
	if b < csrBudgetFloor {
		b = csrBudgetFloor
	}
	if b > math.MaxInt32 {
		b = math.MaxInt32
	}
	return b
}

// Neighbours enumerates each vertex's distinct neighbours — the vertices
// it shares a hyperedge with, itself excluded — in the order a walk over
// its incident hyperedges' pins first meets them. In weighted mode each
// neighbour carries Σ w(e) over the hyperedges the two vertices share,
// counting a pin once per occurrence, so X_j(v) sums to exactly what a
// per-incidence walk adds up.
//
// This is the one owner of the enumeration behind PC(P) and the
// restreaming kernels' X_j(v) (paper eq 4). Build materialises every
// vertex's list as a CSR in one pin walk when it fits the budget
// (max(2·|pins|, 2^20) entries); Of then serves a vertex's list as a
// slice of it, so a kernel pass costs Σ|X(v)| instead of Σ|e|². A graph
// over the budget — or one bound with UsePinWalk — is served by walking
// v's pins on every Of call, into the caller's NeighbourWalk buffer.
//
// After Build returns, Of and Count only read n, so one Neighbours can be
// shared by concurrent goroutines as long as each passes its own
// NeighbourWalk. The buffers grow to the largest graph seen and are kept
// for reuse; Release drops the graph reference.
type Neighbours struct {
	h        *hypergraph.Hypergraph
	weighted bool
	csr      bool
	off      []int32 // v's neighbours are adj[off[v]:off[v+1]]
	adj      []int32
	wt       []int64 // weighted mode only, parallel to adj
}

// NeighbourWalk is one goroutine's private state for the pin walk: epoch
// stamps (and, weighted, list positions) over the vertex set, and the
// buffer a walked list is returned in. The zero value is ready to use;
// the stamps grow to the largest graph walked. It must not be shared
// between concurrent Of calls.
type NeighbourWalk struct {
	stamp []int32
	pos   []int32
	epoch int32
	adj   []int32
	wt    []int64
}

// Build binds n to h and materialises every vertex's neighbour list when
// the lists fit the budget; it reports whether they did. m, when non-nil,
// receives the ordered neighbour pairs of parts (see Count) from the same
// walk, whether or not the lists fit. w supplies the walk's stamps.
func (n *Neighbours) Build(h *hypergraph.Hypergraph, weighted bool, w *NeighbourWalk, m *PairCounts, parts []int32) bool {
	return n.build(h, weighted, w, m, parts, csrBudget(h))
}

func (n *Neighbours) build(h *hypergraph.Hypergraph, weighted bool, w *NeighbourWalk, m *PairCounts, parts []int32, budget int) bool {
	n.h, n.weighted, n.csr = h, weighted, true
	nv := h.NumVertices()
	if cap(n.off) < nv+1 {
		n.off = make([]int32, nv+1)
	}
	n.off = n.off[:nv+1]
	n.off[0] = 0
	n.adj, n.wt = n.adj[:0], n.wt[:0]
	for v := 0; v < nv; v++ {
		w.walk(h, v, weighted)
		if m != nil {
			addPairs(m, parts, v, w.adj, w.list(weighted))
		}
		if !n.csr {
			if m == nil {
				break
			}
			continue
		}
		end := len(n.adj) + len(w.adj)
		if end > budget {
			n.csr = false
			continue
		}
		n.adj = append(growTo(n.adj, end, budget), w.adj...)
		if weighted {
			n.wt = append(growTo(n.wt, end, budget), w.wt...)
		}
		n.off[v+1] = int32(end)
	}
	return n.csr
}

// growTo returns s with room for need elements, reallocating with doubled
// capacity, but never past budget, when it has too little.
func growTo[T int32 | int64](s []T, need, budget int) []T {
	if need <= cap(s) {
		return s
	}
	t := make([]T, len(s), min(max(2*cap(s), need, 4096), budget))
	copy(t, s)
	return t
}

// UsePinWalk binds n to h without materialising anything: every Of call
// walks the pins. It is the reference the CSR is tested against, and the
// right choice for a one-off scan, where a CSR would cost the same walk.
func (n *Neighbours) UsePinWalk(h *hypergraph.Hypergraph, weighted bool) {
	n.h, n.weighted, n.csr = h, weighted, false
}

// Materialised reports whether Of is served from the CSR rather than by
// walking pins.
func (n *Neighbours) Materialised() bool { return n.csr }

// Release drops the graph reference, keeping the buffers for reuse.
func (n *Neighbours) Release() {
	n.h = nil
	n.csr = false
}

// Of returns v's distinct neighbours in first-encounter order and, in
// weighted mode, their shared hyperedge weight (nil otherwise). The slices
// alias either the CSR or w's buffer, must not be modified, and stay valid
// until the next Of call with the same w.
func (n *Neighbours) Of(v int, w *NeighbourWalk) (nbrs []int32, wts []int64) {
	if n.csr {
		lo, hi := n.off[v], n.off[v+1]
		if n.weighted {
			return n.adj[lo:hi], n.wt[lo:hi]
		}
		return n.adj[lo:hi], nil
	}
	w.walk(n.h, v, n.weighted)
	return w.adj, w.list(n.weighted)
}

// Count adds the ordered neighbour pairs of every vertex v in [lo, hi) to
// m: one per distinct neighbour u of v, or Σ w(e) over the hyperedges v
// shares with u when weighted. m must be sized for the partition count of
// parts. Counts over a disjoint cover of the vertex set sum to the full
// matrix exactly, which is how the parallel kernel splits the scan across
// its workers.
func (n *Neighbours) Count(m *PairCounts, parts []int32, w *NeighbourWalk, lo, hi int) {
	for v := lo; v < hi; v++ {
		if !n.csr {
			// A one-off walk counts pairs as it goes: listing them first
			// would only add a store and a load per neighbour.
			w.count(n.h, v, n.weighted, m, parts)
			continue
		}
		nbrs, wts := n.Of(v, w)
		addPairs(m, parts, v, nbrs, wts)
	}
}

// addPairs adds v's pairs with nbrs to row part(v) of m.
func addPairs(m *PairCounts, parts []int32, v int, nbrs []int32, wts []int64) {
	home := int(parts[v])
	row := m.N[home*m.P : (home+1)*m.P]
	if wts == nil {
		for _, u := range nbrs {
			row[parts[u]]++
		}
		return
	}
	for i, u := range nbrs {
		row[parts[u]] += wts[i]
	}
}

// list returns the walked weights in weighted mode, nil otherwise.
func (w *NeighbourWalk) list(weighted bool) []int64 {
	if weighted {
		return w.wt
	}
	return nil
}

// next starts a walk from v: it sizes the stamps for h, advances the
// epoch (zeroing the stamps when it wraps) and stamps v itself, so v is
// never its own neighbour.
func (w *NeighbourWalk) next(h *hypergraph.Hypergraph, v int) (epoch int32, stamp []int32) {
	if nv := h.NumVertices(); len(w.stamp) < nv {
		// Freshly grown stamps are zero, below every live epoch.
		w.stamp = make([]int32, nv)
		w.pos = nil
	}
	w.epoch++
	if w.epoch == math.MaxInt32 {
		clear(w.stamp)
		w.epoch = 1
	}
	w.stamp[v] = w.epoch
	return w.epoch, w.stamp
}

// count adds v's pairs to m straight from the pin walk, without listing
// them — the one-off scan's form of walk. Weighted pairs need no
// deduplication: every incidence of another pin adds w(e).
func (w *NeighbourWalk) count(h *hypergraph.Hypergraph, v int, weighted bool, m *PairCounts, parts []int32) {
	home := int(parts[v])
	row := m.N[home*m.P : (home+1)*m.P]
	if weighted {
		for _, e := range h.IncidentEdges(v) {
			ew := h.EdgeWeight(int(e))
			for _, u := range h.Pins(int(e)) {
				if int(u) != v {
					row[parts[u]] += ew
				}
			}
		}
		return
	}
	epoch, stamp := w.next(h, v)
	for _, e := range h.IncidentEdges(v) {
		for _, u := range h.Pins(int(e)) {
			if stamp[u] != epoch {
				stamp[u] = epoch
				row[parts[u]]++
			}
		}
	}
}

// walk fills w.adj (and w.wt when weighted) with v's neighbours: the pin
// walk over v's incident hyperedges, deduplicated with epoch stamps.
func (w *NeighbourWalk) walk(h *hypergraph.Hypergraph, v int, weighted bool) {
	epoch, stamp := w.next(h, v)
	// Size the buffers for every pin incidence up front, so the loops
	// store by index instead of paying append's capacity check per pin.
	need := 0
	for _, e := range h.IncidentEdges(v) {
		need += h.Cardinality(int(e))
	}
	if cap(w.adj) < need {
		w.adj = make([]int32, 0, 2*need)
	}
	adj, n := w.adj[:need], 0
	if !weighted {
		for _, e := range h.IncidentEdges(v) {
			for _, u := range h.Pins(int(e)) {
				if stamp[u] != epoch {
					stamp[u] = epoch
					adj[n] = u
					n++
				}
			}
		}
		w.adj = adj[:n]
		return
	}
	if len(w.pos) < len(stamp) {
		w.pos = make([]int32, len(stamp))
	}
	if cap(w.wt) < need {
		w.wt = make([]int64, 0, 2*need)
	}
	pos, wt := w.pos, w.wt[:need]
	for _, e := range h.IncidentEdges(v) {
		ew := h.EdgeWeight(int(e))
		for _, u := range h.Pins(int(e)) {
			if stamp[u] == epoch {
				if int(u) != v {
					wt[pos[u]] += ew
				}
				continue
			}
			stamp[u] = epoch
			pos[u] = int32(n)
			adj[n] = u
			wt[n] = ew
			n++
		}
	}
	w.adj, w.wt = adj[:n], wt[:n]
}
