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

// runCheckingPairs runs cfg and, after every stream, compares the kernel's
// incrementally maintained pair counts against a fresh scan of its current
// assignment, and the stream's reported cost against a fresh metrics
// evaluation, both exactly. stale, when non-nil, replaces the scratch's
// pair counts before the run, as a pooled scratch from a run at another p
// would. It returns the run's result.
func runCheckingPairs(t *testing.T, label string, h *hypergraph.Hypergraph, cfg Config, stale *metrics.PairCounts) Result {
	t.Helper()
	p := len(cfg.CostMatrix)
	weighted := cfg.UseEdgeWeights
	var pr *Partitioner
	var fresh metrics.PairCounts
	streams := 0
	cfg.Progress = func(st IterationStats) {
		streams++
		fresh.Reset(p)
		metrics.NewCommScanner().Count(&fresh, h, pr.parts, weighted, 0, h.NumVertices())
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
// current move by move must equal a fresh scan of the assignment, across
// both neighbour-count modes, uniform, hierarchical and profiled matrices,
// the exhaustive and touched-only scans, and the options that change which
// vertices move (frontier restreaming, a seeded assignment, a migration
// penalty, heterogeneous capacities).
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
						cfg := DefaultConfig(cc.cost)
						cfg.MaxIterations = 25
						cfg.UseEdgeWeights = weighted
						cfg.forceExhaustive = exhaustive
						cfg.forceTouchedOnly = !exhaustive
						if vc.mut != nil {
							vc.mut(&cfg)
						}
						label := fmt.Sprintf("seed=%d/%s/%s/weighted=%v/exhaustive=%v",
							seed, cc.label, vc.label, weighted, exhaustive)
						runCheckingPairs(t, label, h, cfg, nil)
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
// does.
func TestPooledPairCountsAcrossPartitionCounts(t *testing.T) {
	h := randomHG(6, 500, 700, 8)
	var stale *metrics.PairCounts
	for _, p := range []int{32, 256, 16} {
		for _, weighted := range []bool{false, true} {
			cfg := DefaultConfig(hier2Cost(p))
			cfg.MaxIterations = 12
			cfg.UseEdgeWeights = weighted
			label := fmt.Sprintf("p=%d/weighted=%v", p, weighted)
			runCheckingPairs(t, label+"/pool", h, cfg, nil)
			if stale != nil {
				runCheckingPairs(t, label+"/stale", h, cfg, stale)
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
// report bit-identical costs, in both neighbour-count modes. The parts are
// scanned by cancelling the run before its first stream, so FinalCommCost
// is the barrier scan of the seeded assignment.
func TestParallelScanCostMatchesAcrossWorkers(t *testing.T) {
	h := randomHG(10, 700, 900, 8)
	p := 32
	for _, weighted := range []bool{false, true} {
		for _, cc := range []struct {
			label string
			cost  [][]float64
		}{
			{"uniform", profile.UniformCost(p)},
			{"hier2", hier2Cost(p)},
			{"profiled", physCost(p, 2)},
		} {
			label := fmt.Sprintf("%s/weighted=%v", cc.label, weighted)
			cfg := DefaultConfig(cc.cost)
			cfg.MaxIterations = 15
			cfg.UseEdgeWeights = weighted
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
