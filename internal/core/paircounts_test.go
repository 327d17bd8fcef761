package core

import (
	"fmt"
	"testing"

	"hyperpraw/internal/hypergraph"
	"hyperpraw/internal/metrics"
	"hyperpraw/internal/profile"
	"hyperpraw/internal/stats"
)

// freshCost is the reference for the kernel's monitored metric: PC(P) of
// parts from a full metrics scan, hyperedge-weighted when asked.
func freshCost(h *hypergraph.Hypergraph, parts []int32, cost [][]float64, weighted bool) float64 {
	if weighted {
		return metrics.WeightedCommCost(h, parts, cost)
	}
	return metrics.CommCost(h, parts, cost)
}

// refGather is the pin-walk reference for X_j(v), written out as the
// kernel's gather once was: walk v's incident hyperedges' pins, count each
// distinct neighbour once (or, weighted, every incidence with w(e)), and
// record partitions in the order they are first touched.
func refGather(h *hypergraph.Hypergraph, parts []int32, v int, weighted bool) (touched []int32, x map[int32]float64) {
	x = map[int32]float64{}
	seen := map[int32]bool{int32(v): true}
	for _, e := range h.IncidentEdges(v) {
		w := 1.0
		if weighted {
			w = float64(h.EdgeWeight(int(e)))
		}
		for _, u := range h.Pins(int(e)) {
			if weighted {
				if int(u) == v {
					continue
				}
			} else if seen[u] {
				continue
			}
			seen[u] = true
			part := parts[u]
			if _, ok := x[part]; !ok {
				touched = append(touched, part)
			}
			x[part] += w
		}
	}
	return touched, x
}

// checkGathers compares the kernel's X_j(v) for every vertex against
// refGather: the same partitions in the same touched order, with
// bitwise-equal counts.
func checkGathers(t *testing.T, label string, pr *Partitioner) {
	t.Helper()
	for v := 0; v < pr.h.NumVertices(); v++ {
		pr.gatherNeighbourCounts(v)
		touched, x := refGather(pr.h, pr.parts, v, pr.cfg.UseEdgeWeights)
		if len(pr.sc.touched) != len(touched) {
			t.Fatalf("%s: vertex %d: touched %v, reference %v", label, v, pr.sc.touched, touched)
		}
		for i, j := range touched {
			if pr.sc.touched[i] != j || pr.sc.xCounts[j] != x[j] {
				t.Fatalf("%s: vertex %d: touched %v (X_%d = %v), reference %v (X_%d = %v)",
					label, v, pr.sc.touched, j, pr.sc.xCounts[j], touched, j, x[j])
			}
		}
	}
}

// freshPairs is the reference pair-count matrix of parts: a pin-walk scan.
func freshPairs(m *metrics.PairCounts, h *hypergraph.Hypergraph, parts []int32, p int, weighted bool) {
	var n metrics.Neighbours
	n.UsePinWalk(h, weighted)
	m.Reset(p)
	n.Count(m, parts, &metrics.NeighbourWalk{}, 0, h.NumVertices())
}

// runCheckingPairs runs cfg and, after every stream, compares the kernel's
// incrementally maintained pair counts against a fresh scan of its current
// assignment, the stream's reported cost against a fresh metrics
// evaluation, and every vertex's gathered X_j(v) against the pin-walk
// reference, all exactly. stale, when non-nil, replaces the scratch's
// pair counts before the run, as a pooled scratch from a run at another p
// would; staleNbrs likewise replaces its neighbour lists, as a scratch
// last used on another graph would. It returns the run's result.
func runCheckingPairs(t *testing.T, label string, h *hypergraph.Hypergraph, cfg Config, stale *metrics.PairCounts, staleNbrs *metrics.Neighbours) Result {
	t.Helper()
	p := len(cfg.CostMatrix)
	weighted := cfg.UseEdgeWeights
	var pr *Partitioner
	var fresh metrics.PairCounts
	streams := 0
	cfg.Progress = func(st IterationStats) {
		streams++
		if served := pr.sc.nbrs.Materialised(); served == cfg.forcePinWalk {
			t.Fatalf("%s: neighbour lists materialised=%v with forcePinWalk=%v", label, served, cfg.forcePinWalk)
		}
		freshPairs(&fresh, h, pr.parts, p, weighted)
		got := pr.sc.pairs
		if got.P != p || len(got.N) != p*p {
			t.Fatalf("%s: stream %d: pair counts sized %d (%d entries), want p=%d", label, st.Iteration, got.P, len(got.N), p)
		}
		for i, n := range fresh.N {
			if got.N[i] != n {
				t.Fatalf("%s: stream %d: M[%d][%d] = %d, fresh scan %d", label, st.Iteration, i/p, i%p, got.N[i], n)
			}
		}
		if want := freshCost(h, pr.parts, cfg.CostMatrix, weighted); st.CommCost != want {
			t.Fatalf("%s: stream %d: cost %v, fresh %v", label, st.Iteration, st.CommCost, want)
		}
		// Gathering between streams is harmless: stream regathers every
		// vertex it visits.
		checkGathers(t, fmt.Sprintf("%s: stream %d", label, st.Iteration), pr)
	}
	var err error
	pr, err = New(h, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer pr.Release()
	if stale != nil {
		pr.sc.pairs = *stale
	}
	if staleNbrs != nil {
		pr.sc.nbrs = *staleNbrs
	}
	res := pr.Run()
	if streams == 0 {
		t.Fatalf("%s: no stream ran", label)
	}
	if want := freshCost(h, res.Parts, cfg.CostMatrix, weighted); res.FinalCommCost != want {
		t.Fatalf("%s: FinalCommCost %v, fresh %v", label, res.FinalCommCost, want)
	}
	return res
}

// TestIncrementalPairCountsMatchScan is the property test of the serial
// kernel's incremental PC(P): after every stream the pair counts it keeps
// current move by move must equal a fresh scan of the assignment, and
// every vertex's X_j(v) the pin-walk reference, across both neighbour-count
// modes, both sides of the neighbour-CSR budget, uniform, hierarchical and
// profiled matrices, the exhaustive and touched-only scans, and the options
// that change which vertices move (frontier restreaming, a seeded
// assignment, a migration penalty, heterogeneous capacities).
func TestIncrementalPairCountsMatchScan(t *testing.T) {
	p := 16
	initial := make([]int32, 400)
	for v := range initial {
		initial[v] = int32((v * 7) % p)
	}
	caps := make([]float64, p)
	rng := stats.NewRNG(21)
	for i := range caps {
		caps[i] = 0.5 + 2*rng.Float64()
	}
	costs := []struct {
		label string
		cost  [][]float64
	}{
		{"uniform", profile.UniformCost(p)},
		{"hier2", hier2Cost(p)},
		{"profiled", physCost(p, 3)},
	}
	variants := []struct {
		label string
		mut   func(*Config)
	}{
		{"plain", nil},
		{"frontier", func(c *Config) { c.FrontierRestreaming = true }},
		{"initialparts", func(c *Config) { c.InitialParts = initial }},
		{"migration", func(c *Config) { c.MigrationPenalty = 0.5 }},
		{"capacities", func(c *Config) { c.Capacities = caps }},
	}
	for seed := uint64(1); seed <= 2; seed++ {
		h := randomHG(seed, 400, 520, 8)
		for _, cc := range costs {
			for _, vc := range variants {
				for _, weighted := range []bool{false, true} {
					for _, exhaustive := range []bool{false, true} {
						for _, pinWalk := range []bool{false, true} {
							cfg := DefaultConfig(cc.cost)
							cfg.MaxIterations = 25
							cfg.UseEdgeWeights = weighted
							cfg.forceExhaustive = exhaustive
							cfg.forceTouchedOnly = !exhaustive
							cfg.forcePinWalk = pinWalk
							if vc.mut != nil {
								vc.mut(&cfg)
							}
							label := fmt.Sprintf("seed=%d/%s/%s/weighted=%v/exhaustive=%v/pinwalk=%v",
								seed, cc.label, vc.label, weighted, exhaustive, pinWalk)
							runCheckingPairs(t, label, h, cfg, nil, nil)
						}
					}
				}
			}
		}
	}
}

// TestPooledPairCountsAcrossPartitionCounts reuses pooled scratch pair
// counts at p=32, then 256, then 16: each run must resize the matrix
// rather than stream against a stale size or stale counts. The previous
// run's matrix is injected explicitly (the pool may or may not hand the
// same scratch back), and the runs also go through the pool as serving
// does. The injected scratch also carries neighbour lists built for a
// larger graph, in the other neighbour-count mode, which the run must
// rebuild rather than extend.
func TestPooledPairCountsAcrossPartitionCounts(t *testing.T) {
	h := randomHG(6, 500, 700, 8)
	var stale *metrics.PairCounts
	for _, p := range []int{32, 256, 16} {
		for _, weighted := range []bool{false, true} {
			cfg := DefaultConfig(hier2Cost(p))
			cfg.MaxIterations = 12
			cfg.UseEdgeWeights = weighted
			label := fmt.Sprintf("p=%d/weighted=%v", p, weighted)
			runCheckingPairs(t, label+"/pool", h, cfg, nil, nil)
			if stale != nil {
				var nbrs metrics.Neighbours
				nbrs.Build(randomHG(16, 900, 1300, 8), !weighted, &metrics.NeighbourWalk{}, nil, nil)
				runCheckingPairs(t, label+"/stale", h, cfg, stale, &nbrs)
			}
		}
		// Leave a dirty p×p matrix for the next partition count.
		var m metrics.PairCounts
		m.Reset(p)
		for i := range m.N {
			m.N[i] = int64(i%7 + 1)
		}
		stale = &m
	}
}

// TestParallelScanCostMatchesAcrossWorkers pins the shared PC(P)
// definition across the kernels: on the same assignment, the parallel
// barrier scan with 1, 2 and 4 workers, the serial kernel and metrics
// report bit-identical costs, in both neighbour-count modes and on both
// sides of the neighbour-CSR budget. The parts are scanned by cancelling
// the run before its first stream, so FinalCommCost is the barrier scan of
// the seeded assignment.
func TestParallelScanCostMatchesAcrossWorkers(t *testing.T) {
	h := randomHG(10, 700, 900, 8)
	p := 32
	for _, weighted := range []bool{false, true} {
		for _, cc := range []struct {
			label   string
			cost    [][]float64
			pinWalk bool
		}{
			{"uniform", profile.UniformCost(p), false},
			{"hier2", hier2Cost(p), false},
			{"profiled", physCost(p, 2), false},
			{"uniform/pinwalk", profile.UniformCost(p), true},
			{"profiled/pinwalk", physCost(p, 2), true},
		} {
			label := fmt.Sprintf("%s/weighted=%v", cc.label, weighted)
			cfg := DefaultConfig(cc.cost)
			cfg.MaxIterations = 15
			cfg.UseEdgeWeights = weighted
			cfg.forcePinWalk = cc.pinWalk
			// A partition worth scanning: the output of a 4-worker run.
			seedRun, err := PartitionParallel(h, cfg, 4)
			if err != nil {
				t.Fatal(err)
			}
			want := freshCost(h, seedRun.Parts, cc.cost, weighted)
			if seedRun.FinalCommCost != want {
				t.Fatalf("%s: 4-worker FinalCommCost %v, metrics %v", label, seedRun.FinalCommCost, want)
			}
			scan := cfg
			scan.InitialParts = seedRun.Parts
			scan.Stop = func() bool { return true }
			for _, w := range []int{1, 2, 4} {
				res, err := PartitionParallel(h, scan, w)
				if err != nil {
					t.Fatal(err)
				}
				if res.FinalCommCost != want {
					t.Fatalf("%s: w=%d scan cost %v, metrics %v", label, w, res.FinalCommCost, want)
				}
			}
			pr, err := New(h, scan)
			if err != nil {
				t.Fatal(err)
			}
			serial := pr.Run()
			pr.Release()
			if serial.FinalCommCost != want {
				t.Fatalf("%s: serial cost %v, metrics %v", label, serial.FinalCommCost, want)
			}
		}
	}
}
