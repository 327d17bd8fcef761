// Package core implements HyperPRAW, the paper's contribution: an
// architecture-aware restreaming hypergraph partitioner.
//
// The algorithm (paper Algorithm 1) starts from a round-robin assignment and
// repeatedly streams the vertex set. For each vertex it evaluates, for every
// candidate partition i, the value function of eq 1:
//
//	V_i(v) = −N_i(v)·T_i(v) − α·W(i)/E(i)
//
// where N_i(v) is the (normalised) number of *other* partitions holding
// neighbours of v, T_i(v) = Σ_j X_j(v)·C(i,j) is the physical cost of the
// communication v would incur from partition i, W(i) is partition i's
// current load and E(i) its expected share. The vertex moves to the argmax.
//
// α tempering follows FENNEL/GRaSP: α starts low (communication dominates),
// is multiplied by tα = 1.7 after each stream while the workload imbalance
// exceeds the tolerance, and — the paper's refinement contribution — once
// within tolerance the update factor switches to the refinement factor
// (0.95 decays α, trading a little balance for better communication) and the
// restreaming continues until the partitioning communication cost PC(P)
// stops improving.
//
// HyperPRAW-aware passes the profiled cost matrix as C; HyperPRAW-basic
// passes the uniform matrix. Nothing else differs between the two modes.
package core

import (
	"fmt"
	"math"

	"hyperpraw/internal/hypergraph"
)

// Config parameterises a HyperPRAW run. The zero value is not usable; start
// from DefaultConfig.
type Config struct {
	// CostMatrix is C(i,j): square, one row per partition, zero diagonal.
	// Its dimension determines the number of partitions. Use
	// profile.UniformCost for HyperPRAW-basic and profile.CostMatrix of a
	// profiled bandwidth matrix for HyperPRAW-aware.
	CostMatrix [][]float64
	// Alpha0 is the starting workload-balance weight. Zero selects FENNEL's
	// recommendation sqrt(p)·|E|/sqrt(|V|) (paper §4).
	Alpha0 float64
	// TemperFactor is tα, the α multiplier applied after each stream while
	// imbalance exceeds the tolerance. The paper uses 1.7.
	TemperFactor float64
	// RefinementPolicy selects the behaviour once within tolerance.
	RefinementPolicy RefinementPolicy
	// RefinementFactor is the α multiplier during the refinement phase
	// (paper: 0.95 best, 1.0 keeps α constant). Only used with
	// RefineUntilNoImprovement.
	RefinementFactor float64
	// ImbalanceTolerance is the acceptable max/mean load ratio (> 1).
	ImbalanceTolerance float64
	// MaxIterations caps the number of streams (paper's N).
	MaxIterations int
	// Patience is how many consecutive non-improving refinement iterations
	// are tolerated before stopping and returning the best partition seen.
	// The paper's Algorithm 1 stops at the first worsening (Patience = 1);
	// its Fig 3 histories, however, show refinement running 50–100
	// iterations through local fluctuations, which a patience of a few
	// iterations reproduces on small noisy instances. Default 3.
	Patience int
	// ShuffledOrder visits vertices in a per-stream random order instead of
	// the natural order. Natural order matches the paper; shuffling is an
	// ablation knob (see the ablation benchmarks).
	ShuffledOrder bool
	// Seed drives the shuffled order (unused otherwise).
	Seed uint64
	// RecordHistory stores per-iteration statistics in the result (used for
	// Fig 3).
	RecordHistory bool
	// Progress, when non-nil, is called synchronously after every stream
	// with that stream's statistics — the live counterpart of RecordHistory,
	// used by the serving layer to push per-iteration progress to clients
	// while the run is still going. The callback runs on the partitioning
	// goroutine; a slow callback slows the run.
	Progress func(IterationStats)
	// Stop, when non-nil, is polled between streams; returning true ends
	// the run with StoppedCanceled and the best partition found so far.
	// This is the cooperative cancellation hook the serving layer uses to
	// enforce per-job deadlines: a stuck refinement cannot hold a worker
	// slot past its budget. Polled once per stream, so cancellation
	// latency is one pass, not one vertex.
	Stop func() bool
	// UseEdgeWeights switches the neighbour count X_j(v) from distinct
	// neighbours to hyperedge-weighted pin incidences, implementing the
	// paper's §8.2 extension for asymmetric communication patterns ("weighing
	// the cost of communications in the vertex assignment objective function
	// with the hyperedge weight"). With all weights 1 this counts each
	// shared hyperedge separately rather than each distinct neighbour once.
	UseEdgeWeights bool
	// Capacities optionally gives each partition a relative work capacity
	// (paper §4.1: "the algorithm can easily account for heterogeneous
	// computation and work capacities"). nil means homogeneous. When set,
	// the expected load E(i) becomes totalW·cap_i/Σcap and the imbalance is
	// max_i W(i)/E(i).
	Capacities []float64
	// MigrationPenalty, when positive, subtracts penalty·w(v) from the value
	// of every partition other than the vertex's current one, discouraging
	// data movement. This implements the repartitioning-with-migration-cost
	// model of the paper's related work (Catalyurek et al. [6,7]) within the
	// restreaming framework: useful when the partition is being *re*computed
	// for an application whose data already lives somewhere. 0 disables it.
	MigrationPenalty float64
	// InitialParts optionally seeds the stream with an existing assignment
	// instead of round-robin (the repartitioning scenario). Must assign
	// every vertex to [0, p) when set.
	InitialParts []int32
	// FrontierRestreaming streams only the moved-vertex frontier once the
	// partition is inside the imbalance tolerance: a vertex is revisited in
	// pass n+1 iff it or a neighbour moved in pass n. Full corrective sweeps
	// still run while out of tolerance (α tempering must reach every vertex)
	// and every frontierFullSweepEvery-th pass thereafter. Off by default:
	// the paper's semantics stream every vertex every pass; frontier mode
	// reaches a cut of equivalent quality (see the equivalence tests) in a
	// fraction of the refinement work.
	FrontierRestreaming bool
	// Index optionally supplies a prebuilt cost-tier index for CostMatrix
	// (see BuildCostIndex). It must have been built from this exact matrix
	// instance; a mismatched index is detected and rebuilt. nil makes New
	// build one — callers that reuse a matrix across many runs (the
	// serving layer's cached Environments) should build once and share.
	Index *CostIndex
	// Stats, when non-nil, receives the run's kernel activity counters
	// (scan strategy mix, pruning effectiveness, frontier sizes) — see
	// StreamStats. Accumulated with Add semantics at the end of Run, so
	// one sink can aggregate several runs. Collection is bookkeeping only
	// and never changes a move decision.
	Stats *StreamStats

	// forceExhaustive pins the kernel to the original O(p)-per-vertex
	// candidate scan. Unexported: only the in-package equivalence tests and
	// benchmarks use it, as the reference and baseline respectively.
	forceExhaustive bool
	// forceTouchedOnly enables the touched-only scan below
	// fastScanMinPartitions, where it is a net loss and normally skipped.
	// Unexported: the equivalence tests use it to exercise the fast paths at
	// small p.
	forceTouchedOnly bool
	// forcePinWalk serves every neighbour list by walking pins, the path a
	// graph over the neighbour-CSR budget takes. Unexported: the parity
	// tests use it to run both sides of the budget on small graphs.
	forcePinWalk bool
}

// fastScanMinPartitions is the partition count below which the uniform
// touched-only scan is skipped: for small p the exhaustive scan's
// p·|touched| fused multiply-adds cost as much as the per-vertex heap
// traffic (both scans pick identical moves, so the threshold only trades
// speed). The blocked (cost-tier) scan pays O(B) per vertex for the block
// walk, so it amortises at the same small p as the uniform scan; the
// scalar-bound pruned scan for unstructured matrices (pickBounded) pays
// several heap pops per vertex and needs a larger p.
const (
	fastScanMinPartitions    = 32
	blockedScanMinPartitions = 32
	boundedScanMinPartitions = 128
)

// frontierFullSweepEvery is the cadence of corrective full sweeps in
// frontier mode: after this many consecutive frontier passes, one pass
// streams every vertex again so drift in α and the loads reaches vertices
// the frontier never revisited.
const frontierFullSweepEvery = 8

// boundMargin is the relative slack added to the untouched-candidate upper
// bound of the pruned scan (pickBounded), so floating-point rounding can
// only make the scan examine more candidates than strictly necessary, never
// fewer.
const boundMargin = 1e-9

// RefinementPolicy is the stopping behaviour once the partition is within
// the imbalance tolerance.
type RefinementPolicy int

const (
	// RefineUntilNoImprovement continues restreaming until PC(P) stops
	// improving (the paper's refinement phase).
	RefineUntilNoImprovement RefinementPolicy = iota
	// StopAtTolerance halts as soon as the imbalance tolerance is met
	// (the paper's "no refinement" baseline, as in GRaSP).
	StopAtTolerance
)

// DefaultConfig returns the paper's configuration for p partitions with the
// given cost matrix: FENNEL α start, tα = 1.7, refinement 0.95, 10%
// imbalance tolerance, 100 iteration cap.
func DefaultConfig(cost [][]float64) Config {
	return Config{
		CostMatrix:         cost,
		TemperFactor:       1.7,
		RefinementPolicy:   RefineUntilNoImprovement,
		RefinementFactor:   0.95,
		ImbalanceTolerance: 1.10,
		MaxIterations:      100,
		Patience:           3,
	}
}

// IterationStats records the state after one full stream.
type IterationStats struct {
	Iteration int
	// CommCost is PC(P) measured with the algorithm's own cost matrix.
	CommCost  float64
	Imbalance float64
	// Alpha is the balance weight used during this stream.
	Alpha float64
	// Moves is how many vertices changed partition during the stream.
	Moves int
	// InTolerance reports whether the stream ended within the imbalance
	// tolerance (i.e. whether the next stream runs in refinement mode).
	InTolerance bool
}

// Result is the outcome of a HyperPRAW run.
type Result struct {
	// Parts assigns each vertex its partition.
	Parts []int32
	// Iterations is the number of streams executed.
	Iterations int
	// Stopped explains why the run ended.
	Stopped StopReason
	// History holds per-iteration statistics when Config.RecordHistory is
	// set.
	History []IterationStats
	// FinalCommCost is PC(P) of Parts under the algorithm's cost matrix.
	FinalCommCost float64
	// FinalImbalance is the max/mean load ratio of Parts.
	FinalImbalance float64
}

// StopReason explains termination.
type StopReason int

const (
	// StoppedNoImprovement: the refinement phase saw PC(P) worsen and
	// returned the previous (best) partition.
	StoppedNoImprovement StopReason = iota
	// StoppedAtTolerance: StopAtTolerance policy hit the tolerance.
	StoppedAtTolerance
	// StoppedMaxIterations: the iteration cap was reached.
	StoppedMaxIterations
	// StoppedCanceled: the Config.Stop hook requested termination (deadline
	// or shutdown). Parts holds the best partition found before the stop.
	StoppedCanceled
)

func (r StopReason) String() string {
	switch r {
	case StoppedNoImprovement:
		return "no-improvement"
	case StoppedAtTolerance:
		return "at-tolerance"
	case StoppedMaxIterations:
		return "max-iterations"
	case StoppedCanceled:
		return "canceled"
	default:
		return fmt.Sprintf("StopReason(%d)", int(r))
	}
}

// Partitioner holds the streaming state for one hypergraph/machine pair.
// Create with New, run with Run, and call Release when done to return the
// pooled buffers. A Partitioner is not safe for concurrent use.
type Partitioner struct {
	// scanner holds the run's view of the graph, the assignment (parts),
	// the exact loads, the pooled scratch and the cost-tier index, and
	// scores every visit.
	scanner
	cfg      Config
	totalW   int64
	orderRNG splitMix // drives Config.ShuffledOrder
}

// New validates the configuration and prepares a Partitioner.
func New(h *hypergraph.Hypergraph, cfg Config) (*Partitioner, error) {
	p := len(cfg.CostMatrix)
	if p == 0 {
		return nil, fmt.Errorf("core: empty cost matrix")
	}
	for i, row := range cfg.CostMatrix {
		if len(row) != p {
			return nil, fmt.Errorf("core: cost matrix row %d has %d entries, want %d", i, len(row), p)
		}
		if row[i] != 0 {
			return nil, fmt.Errorf("core: cost matrix diagonal must be zero (row %d is %g)", i, row[i])
		}
	}
	if cfg.ImbalanceTolerance <= 1 {
		return nil, fmt.Errorf("core: imbalance tolerance must exceed 1, got %g", cfg.ImbalanceTolerance)
	}
	if cfg.MaxIterations <= 0 {
		return nil, fmt.Errorf("core: max iterations must be positive, got %d", cfg.MaxIterations)
	}
	if cfg.TemperFactor <= 0 {
		return nil, fmt.Errorf("core: temper factor must be positive, got %g", cfg.TemperFactor)
	}
	if cfg.RefinementPolicy == RefineUntilNoImprovement && cfg.RefinementFactor <= 0 {
		return nil, fmt.Errorf("core: refinement factor must be positive, got %g", cfg.RefinementFactor)
	}
	if cfg.Capacities != nil {
		if len(cfg.Capacities) != p {
			return nil, fmt.Errorf("core: %d capacities for %d partitions", len(cfg.Capacities), p)
		}
		for i, c := range cfg.Capacities {
			if c <= 0 {
				return nil, fmt.Errorf("core: capacity %d is non-positive (%g)", i, c)
			}
		}
	}
	if cfg.InitialParts != nil {
		if len(cfg.InitialParts) != h.NumVertices() {
			return nil, fmt.Errorf("core: initial partition length %d, want %d", len(cfg.InitialParts), h.NumVertices())
		}
		for v, q := range cfg.InitialParts {
			if q < 0 || int(q) >= p {
				return nil, fmt.Errorf("core: initial partition assigns vertex %d to %d, want [0,%d)", v, q, p)
			}
		}
	}
	if cfg.MigrationPenalty < 0 {
		return nil, fmt.Errorf("core: negative migration penalty %g", cfg.MigrationPenalty)
	}
	if cfg.Alpha0 == 0 {
		cfg.Alpha0 = FennelAlpha(p, h.NumEdges(), h.NumVertices())
	}
	cidx := cfg.Index
	if !cidx.matches(cfg.CostMatrix) {
		cidx = BuildCostIndex(cfg.CostMatrix)
	}
	sc := acquireScratch(p)
	sc.parts = growI32(sc.parts, h.NumVertices())
	pr := &Partitioner{cfg: cfg}
	pr.scanner.init(h, &pr.cfg, cidx, sc, &sc.nbrs, sc.parts, sc.loads, sc.expected)
	return pr, nil
}

// Release returns the Partitioner's pooled buffers; the Partitioner (and any
// aliases of its internal state) must not be used afterwards. Results
// returned by Run are copies and stay valid.
func (pr *Partitioner) Release() {
	releaseScratch(pr.sc)
	pr.sc = nil
	pr.parts = nil
	pr.loads = nil
}

// costStructure classifies the cost matrix for the touched-only scan:
// whether every off-diagonal entry is one constant (HyperPRAW-basic and the
// uniform benchmarks), and the smallest off-diagonal entry, which lower-
// bounds any candidate's communication term in the pruned scan.
func costStructure(cost [][]float64) (uniform bool, uniformC, minOff float64) {
	uniform = true
	first := true
	for i, row := range cost {
		for j, c := range row {
			if i == j {
				continue
			}
			if first {
				uniformC, minOff = c, c
				first = false
				continue
			}
			if c != uniformC {
				uniform = false
			}
			if c < minOff {
				minOff = c
			}
		}
	}
	return uniform, uniformC, minOff
}

// FennelAlpha returns the starting balance weight sqrt(p)·|E|/sqrt(|V|)
// that the paper's §4 attributes to FENNEL. It is not FENNEL's own α: that
// is sqrt(k)·m/n^{3/2} (Tsourakakis et al.), a factor |V| smaller. The
// deviation is kept until ROADMAP item 1 settles it, because α moves every
// partition and every reported comm cost.
func FennelAlpha(p, numEdges, numVertices int) float64 {
	if numVertices == 0 {
		return 1
	}
	return math.Sqrt(float64(p)) * float64(numEdges) / math.Sqrt(float64(numVertices))
}

// Run executes Algorithm 1 and returns the resulting partition.
func (pr *Partitioner) Run() Result {
	pr.resetAssignment()
	pr.tally = StreamStats{}
	if pr.cfg.ShuffledOrder {
		pr.sc.order = growI32(pr.sc.order, len(pr.parts))
		for i := range pr.sc.order {
			pr.sc.order[i] = int32(i)
		}
		pr.orderRNG = splitMix{state: pr.cfg.Seed ^ 0x5eed}
	}
	if pr.cfg.FrontierRestreaming {
		// Fresh stamps per run keep frontier runs deterministic no matter
		// what a pooled scratch streamed before.
		pr.sc.dirty = growI32(pr.sc.dirty, len(pr.parts))
		for i := range pr.sc.dirty {
			pr.sc.dirty[i] = 0
		}
	}
	return restream(pr.h, &pr.cfg, pr, pr.sc, !pr.sc.nbrs.Materialised())
}

// pass is the serial kernel's restreamer pass: one stream, then the
// convergence check from the pair counts the stream kept current.
func (pr *Partitioner) pass(n int, alpha float64, frontier bool) (int, float64, float64) {
	var order []int32
	if pr.cfg.ShuffledOrder {
		order = pr.sc.order
		pr.orderRNG.shuffle(order)
	}
	moves := pr.stream(alpha, order, n, frontier)
	return moves, imbalance(pr.cfg.Capacities, pr.loads, pr.expected), pr.sc.pairs.Cost(pr.cfg.CostMatrix)
}

func (pr *Partitioner) assignment() []int32   { return pr.parts }
func (pr *Partitioner) initialCost() float64  { return pr.sc.pairs.Cost(pr.cfg.CostMatrix) }
func (pr *Partitioner) counters() StreamStats { return pr.tally }

// resetAssignment restores the initial assignment (round-robin, or the
// caller's when repartitioning), the loads and expected loads derived from
// it, and the pair
// counts of PC(P), and builds the run's neighbour lists. Lists and counts
// come from the run's one pin walk; stream keeps the counts current from
// then on. Run starts with it; the kernel benchmarks call it to restart
// between measured streams.
func (pr *Partitioner) resetAssignment() {
	h, p := pr.h, pr.p
	nv := h.NumVertices()
	if pr.cfg.InitialParts != nil {
		copy(pr.parts, pr.cfg.InitialParts)
	} else {
		for v := 0; v < nv; v++ {
			pr.parts[v] = int32(v % p)
		}
	}
	for i := range pr.loads {
		pr.loads[i] = 0
	}
	pr.totalW = 0
	for v := 0; v < nv; v++ {
		w := h.VertexWeight(v)
		pr.loads[pr.parts[v]] += w
		pr.totalW += w
	}
	expectedLoads(pr.expected, pr.cfg.Capacities, pr.totalW)
	sc := pr.sc
	sc.pairs.Reset(p)
	if pr.cfg.forcePinWalk {
		sc.nbrs.UsePinWalk(h, pr.cfg.UseEdgeWeights)
		sc.nbrs.Count(&sc.pairs, pr.parts, &sc.walk, 0, nv)
		return
	}
	sc.nbrs.Build(h, pr.cfg.UseEdgeWeights, &sc.walk, &sc.pairs, pr.parts)
}

// splitMix is a tiny local PRNG for the optional shuffled stream order
// (avoids importing internal/stats into the hot core package).
type splitMix struct{ state uint64 }

func (s *splitMix) next() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (s *splitMix) shuffle(xs []int32) {
	for i := len(xs) - 1; i > 0; i-- {
		j := int(s.next() % uint64(i+1))
		xs[i], xs[j] = xs[j], xs[i]
	}
}

// stream performs one pass, reassigning each visited vertex greedily, and
// returns the number of vertices that moved. order, when non-nil, gives the
// visiting sequence; nil means natural order. pass is the 1-based iteration
// number; when frontierOnly is set, only vertices whose dirty stamp matches
// this pass (they or a neighbour moved last pass) are visited. Every move
// updates the loads, the scanner's load minima and the pair counts of
// PC(P) in place.
func (pr *Partitioner) stream(alpha float64, order []int32, pass int, frontierOnly bool) int {
	h := pr.h
	sc := pr.sc
	nv := h.NumVertices()
	moves := 0
	pr.begin(alpha)
	mark := pr.cfg.FrontierRestreaming
	next := int32(pass) + 1
	var visited int64

	for idx := 0; idx < nv; idx++ {
		v := idx
		if order != nil {
			v = int(order[idx])
		}
		// Visit when due this pass OR already marked for the next one (a
		// neighbour that moved earlier in this very pass must not cancel a
		// pending visit by overwriting the stamp with pass+1).
		if frontierOnly {
			if sc.dirty[v] < int32(pass) {
				continue
			}
			visited++
		}
		nbrs := pr.gather(v)
		old := pr.parts[v]
		if best := pr.pick(v, old, alpha); best != old {
			w := h.VertexWeight(v)
			pr.loads[old] -= w
			pr.loads[best] += w
			pr.parts[v] = best
			pr.movePairs(old, best)
			pr.noteMove(old, best)
			if mark {
				markDirty(sc.dirty, v, nbrs, next)
			}
			moves++
		}
	}
	pr.end(int64(moves), visited)
	return moves
}

// movePairs keeps the pair counts of PC(P) current across one vertex's
// move from a to b, from the X_j(v) just gathered for it: v's own pairs
// leave row a for row b, and its neighbours' pairs with v leave column a
// for column b. Both hold for either neighbour-count mode, because the
// neighbour relation (and the weight two vertices share) is symmetric.
func (pr *Partitioner) movePairs(a, b int32) {
	sc := pr.sc
	p := pr.p
	m := sc.pairs.N
	rowA := m[int(a)*p : int(a+1)*p]
	rowB := m[int(b)*p : int(b+1)*p]
	for _, j := range sc.touched {
		x := int64(sc.xCounts[j])
		rowA[j] -= x
		rowB[j] += x
		col := int(j) * p
		m[col+int(a)] -= x
		m[col+int(b)] += x
	}
}

// markDirty stamps v and its neighbours nbrs as frontier members for pass
// `next`: a vertex must be re-streamed iff it or a neighbour moved. The
// stamp is checked before the store: vertices on hot hyperedges are marked
// once per moving neighbour, and skipping the redundant stores keeps their
// cache lines clean instead of re-dirtying them on every mark.
func markDirty(dirty []int32, v int, nbrs []int32, next int32) {
	dirty[v] = next
	for _, u := range nbrs {
		if dirty[u] != next {
			dirty[u] = next
		}
	}
}

// Partition is the one-call convenience wrapper: configure, run, return the
// partition vector.
func Partition(h *hypergraph.Hypergraph, cfg Config) ([]int32, error) {
	pr, err := New(h, cfg)
	if err != nil {
		return nil, err
	}
	defer pr.Release()
	return pr.Run().Parts, nil
}
