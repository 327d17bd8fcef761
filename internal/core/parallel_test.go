package core

import (
	"sync"
	"testing"

	"hyperpraw/internal/metrics"
	"hyperpraw/internal/profile"
)

// TestParallelInitialPartsSeeded proves PartitionParallel seeds from
// Config.InitialParts rather than round-robin: a run cancelled before its
// first stream must return exactly the seeded assignment.
func TestParallelInitialPartsSeeded(t *testing.T) {
	h := randomHG(12, 120, 150, 6)
	p := 8
	initial := make([]int32, h.NumVertices())
	for v := range initial {
		initial[v] = int32((v * 3) % p)
	}
	cfg := DefaultConfig(profile.UniformCost(p))
	cfg.InitialParts = initial
	cfg.Stop = func() bool { return true }
	out, err := PartitionParallel(h, cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	if out.Stopped != StoppedCanceled {
		t.Fatalf("stopped %v, want canceled before the first stream", out.Stopped)
	}
	for v := range initial {
		if out.Parts[v] != initial[v] {
			t.Fatalf("vertex %d: %d, want seeded %d", v, out.Parts[v], initial[v])
		}
	}
}

// TestParallelBlockOwnershipCoversWorkers checks the LPT rebalancer on a
// blocked matrix: ownership is block-aligned, every block has an owner in
// range, and with more blocks than workers every worker owns at least one
// block (no worker idles while peers stream).
func TestParallelBlockOwnershipCoversWorkers(t *testing.T) {
	h := randomHG(13, 600, 800, 8)
	cfg := DefaultConfig(hier2Cost(64)) // 8 blocks of 8
	pr, err := New(h, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg = pr.cfg
	cidx := pr.cidx
	pr.Release()
	workers := 4
	run := newParallelRun(h, cfg, cidx, workers)
	defer run.close()
	if !run.s.blockAligned {
		t.Fatalf("hier2 p=64 not block-aligned (kind=%d blocks=%d)", cidx.kind, len(cidx.blocks))
	}
	owned := make([]int, workers)
	for b, w := range run.s.blockOwner {
		if w < 0 || int(w) >= workers {
			t.Fatalf("block %d owned by out-of-range worker %d", b, w)
		}
		owned[w]++
	}
	for w, n := range owned {
		if n == 0 {
			t.Fatalf("worker %d owns no blocks (owners %v)", w, run.s.blockOwner)
		}
	}
}

// TestParallelBlockRebalanceRace drives the per-superstep block rebalancer
// concurrently with streaming under -race: several block-aligned frontier
// runs in flight at once, each rebalancing ownership between barriers while
// its workers stream, gather, and mark shared dirty stamps. Failures here
// are data races or invalid partitions, not quality.
func TestParallelBlockRebalanceRace(t *testing.T) {
	h := randomHG(14, 900, 1300, 8)
	cfg := DefaultConfig(hier2Cost(64))
	cfg.MaxIterations = 30
	cfg.FrontierRestreaming = true
	var wg sync.WaitGroup
	errs := make([]error, 3)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			out, err := PartitionParallel(h, cfg, 4)
			if err == nil {
				err = metrics.ValidatePartition(h, out.Parts, 64)
			}
			errs[i] = err
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
	}
}

// TestParallelSuperstepDoesNotAllocate pins the 0 allocs/op contract of the
// streaming superstep: after warm-up, a full stream + collect + scan cycle
// must not allocate on the driver goroutine (worker goroutines are covered
// by the -benchmem gate on the parallel benchmark family).
func TestParallelSuperstepDoesNotAllocate(t *testing.T) {
	h := randomHG(15, 800, 1100, 8)
	cfg := DefaultConfig(hier2Cost(64))
	pr, err := New(h, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg = pr.cfg
	cidx := pr.cidx
	pr.Release()
	run := newParallelRun(h, cfg, cidx, 2)
	defer run.close()
	alpha := cfg.Alpha0
	for i := 0; i < 3; i++ {
		run.pass(1, alpha, false)
	}
	avg := testing.AllocsPerRun(10, func() {
		run.pass(1, alpha, false)
	})
	if avg != 0 {
		t.Fatalf("superstep allocates %.1f objects/op on the driver, want 0", avg)
	}
}
