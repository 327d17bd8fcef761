package core

import (
	"testing"

	"hyperpraw/internal/metrics"
	"hyperpraw/internal/profile"
)

func movedFraction(a, b []int32) float64 {
	moved := 0
	for v := range a {
		if a[v] != b[v] {
			moved++
		}
	}
	return float64(moved) / float64(len(a))
}

func TestInitialPartsSeedsStream(t *testing.T) {
	h := testHG(40)
	k := 8
	cost := profile.UniformCost(k)

	// First run from scratch.
	first := mustRun(t, h, DefaultConfig(cost))

	// Repartition from the previous assignment with a huge migration
	// penalty: nothing should move.
	cfg := DefaultConfig(cost)
	cfg.InitialParts = first.Parts
	cfg.MigrationPenalty = 1e12
	cfg.MaxIterations = 5
	out := mustRun(t, h, cfg)
	if frac := movedFraction(first.Parts, out.Parts); frac != 0 {
		t.Fatalf("huge migration penalty still moved %.1f%% of vertices", frac*100)
	}
}

func TestMigrationPenaltyReducesChurn(t *testing.T) {
	h := testHG(41)
	k := 8
	cost := profile.UniformCost(k)
	first := mustRun(t, h, DefaultConfig(cost))

	// workers 0 runs the serial kernel; 4 the parallel one, which scores
	// the penalty with the same scanner.
	run := func(penalty float64, workers int) float64 {
		cfg := DefaultConfig(cost)
		cfg.InitialParts = first.Parts
		cfg.MigrationPenalty = penalty
		cfg.MaxIterations = 10
		if workers == 0 {
			return movedFraction(first.Parts, mustRun(t, h, cfg).Parts)
		}
		out, err := PartitionParallel(h, cfg, workers)
		if err != nil {
			t.Fatal(err)
		}
		return movedFraction(first.Parts, out.Parts)
	}
	for _, workers := range []int{0, 4} {
		free := run(0, workers)
		penalised := run(50, workers)
		if penalised > free {
			t.Fatalf("workers=%d: migration penalty increased churn: %.3f vs %.3f", workers, penalised, free)
		}
	}
}

func TestRepartitionStaysValid(t *testing.T) {
	h := testHG(42)
	k := 8
	cost := profile.UniformCost(k)
	first := mustRun(t, h, DefaultConfig(cost))
	cfg := DefaultConfig(cost)
	cfg.InitialParts = first.Parts
	cfg.MigrationPenalty = 10
	out := mustRun(t, h, cfg)
	if err := metrics.ValidatePartition(h, out.Parts, k); err != nil {
		t.Fatal(err)
	}
}

func TestInitialPartsValidation(t *testing.T) {
	h := testHG(43)
	cfg := DefaultConfig(profile.UniformCost(4))
	cfg.InitialParts = []int32{0, 1} // wrong length
	if _, err := New(h, cfg); err == nil {
		t.Fatal("short initial partition accepted")
	}
	bad := make([]int32, h.NumVertices())
	bad[3] = 99
	cfg.InitialParts = bad
	if _, err := New(h, cfg); err == nil {
		t.Fatal("out-of-range initial partition accepted")
	}
	cfg.InitialParts = nil
	cfg.MigrationPenalty = -1
	if _, err := New(h, cfg); err == nil {
		t.Fatal("negative migration penalty accepted")
	}
}
