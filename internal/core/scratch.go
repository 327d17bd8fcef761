package core

import (
	"math"
	"sync"

	"hyperpraw/internal/metrics"
)

// scratch bundles every reusable buffer one streaming kernel needs: the
// neighbour lists and the epoch-stamped partition gather over them, the
// min-load index of the touched-only scan, the frontier stamps of frontier
// restreaming, the assignment/load vectors, and the pair counts of the
// convergence check.
//
// Scratches are recycled through a package-level sync.Pool so a long-lived
// server partitioning job after job stops allocating in the kernel: New (and
// PartitionParallel's per-worker scratches) acquire from the pool and
// Partitioner.Release returns them. The epoch counters live here and only
// ever grow, which is what makes reuse safe — stamps written for a previous
// (possibly larger) hypergraph can never equal a future epoch.
type scratch struct {
	// Neighbour enumeration (see metrics.Neighbours): nbrs holds the run's
	// distinct-neighbour CSR, rebuilt in place every run, and walk the
	// pin-walk stamps and buffer that build it and that serve a graph over
	// the CSR budget. A parallel run builds the CSR in worker 0's scratch
	// only; every worker walks with its own walk.
	nbrs metrics.Neighbours
	walk metrics.NeighbourWalk

	// Partition gather state: X_j(v) per touched partition (paper eq 4).
	pstamp  []int32
	epoch   int32
	xCounts []float64
	touched []int32

	// Touched-only candidate scan state.
	minIdx minLoadIndex

	// Blocked (cost-tier) scan state: sstamp marks partitions already
	// scored for the current vertex (same epoch scheme as pstamp);
	// tLBAll is the per-vertex vector of block floor sums. Blocks are
	// small (a socket's worth of partitions), so their load minima are
	// kept as a flat cached argmin per block — blockMinQ/blockMinIdx,
	// invalidated through blockStale — rather than heaps: maintenance is
	// O(1) per move (a load decrease can only improve the cached
	// minimum; a load increase on the cached argmin marks the block
	// stale) and a stale block is recomputed lazily by one contiguous
	// member scan, which beats heap pointer-chasing by a wide margin at
	// these sizes.
	sstamp      []int32
	blockMinQ   []float64
	blockMinIdx []int32
	blockStale  []bool
	tLBAll      []float64

	// Frontier restreaming stamps: dirty[v] holds the latest pass index for
	// which v must be re-streamed.
	dirty []int32

	// Assignment/load state for a serial Partitioner. A parallel worker
	// shares assignment state through parallelState instead and reuses
	// loads as its private load view.
	parts     []int32
	loads     []int64
	bestParts []int32
	order     []int32
	expected  []float64

	// Parallel-worker state: delta batches the worker's unflushed load
	// changes against the shared counters (must be re-zeroed on acquire —
	// a pooled scratch may carry another run's residue); blockVerts is the
	// worker's share of the per-block vertex census. Both are grown lazily
	// by the parallel kernel only.
	delta      []int64
	blockVerts []int64

	// Convergence-check state. pairs is the p×p pair-count matrix M of
	// PC(P): the serial kernel fills it during the run's neighbour-list
	// build and then keeps it current move by move; a parallel worker
	// refills it with its vertex range of the barrier scan every pass.
	// Reset sizes it for the run's p, so a pooled scratch never carries a
	// stale size.
	pairs metrics.PairCounts
}

var scratchPool = sync.Pool{New: func() any { return &scratch{} }}

// acquireScratch takes a scratch from the pool and sizes the buffers every
// kernel needs: the gather state and the p-sized load vectors. The
// nv-sized buffers (parts/bestParts/order/dirty, the neighbour CSR and
// walk stamps) are grown lazily by the code paths that actually use them,
// so parallel workers — which share assignment state through
// parallelState — and feature-off serial runs don't allocate or pin arrays
// they never touch. Growing reallocates (zeroed, which is always safe);
// shrinking reslices, leaving stale stamps that the monotone epoch
// counters never collide with.
func acquireScratch(p int) *scratch {
	sc := scratchPool.Get().(*scratch)
	sc.pstamp = growI32(sc.pstamp, p)
	sc.sstamp = growI32(sc.sstamp, p)
	sc.touched = sc.touched[:0]
	if cap(sc.xCounts) < p {
		sc.xCounts = make([]float64, p)
		sc.expected = make([]float64, p)
	} else {
		sc.xCounts = sc.xCounts[:p]
		sc.expected = sc.expected[:p]
	}
	if cap(sc.loads) < p {
		sc.loads = make([]int64, p)
	} else {
		sc.loads = sc.loads[:p]
	}
	return sc
}

// releaseScratch returns sc to the pool, dropping its graph reference so a
// pooled scratch keeps buffers alive, never a hypergraph.
func releaseScratch(sc *scratch) {
	if sc != nil {
		sc.nbrs.Release()
		scratchPool.Put(sc)
	}
}

func growI32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

func growI64(s []int64, n int) []int64 {
	if cap(s) < n {
		return make([]int64, n)
	}
	return s[:n]
}

// bumpEpoch advances the gather epoch, handling the (extremely long run)
// wraparound by zeroing every stamp and restarting at 1, so a stale stamp
// can never equal a post-wrap epoch.
func (sc *scratch) bumpEpoch() int32 {
	sc.epoch++
	if sc.epoch == math.MaxInt32 {
		for i := range sc.pstamp {
			sc.pstamp[i] = 0
		}
		for i := range sc.sstamp {
			sc.sstamp[i] = 0
		}
		sc.epoch = 1
	}
	return sc.epoch
}

// resetBlockState prepares the blocked scan's per-block load-minimum
// caches for one stream: every block starts stale and is recomputed from
// the live loads on first use.
func (sc *scratch) resetBlockState(nb int) {
	if cap(sc.blockMinQ) < nb {
		sc.blockMinQ = make([]float64, nb)
		sc.blockMinIdx = make([]int32, nb)
		sc.blockStale = make([]bool, nb)
		sc.tLBAll = make([]float64, nb)
	} else {
		sc.blockMinQ = sc.blockMinQ[:nb]
		sc.blockMinIdx = sc.blockMinIdx[:nb]
		sc.blockStale = sc.blockStale[:nb]
		sc.tLBAll = sc.tLBAll[:nb]
	}
	for b := range sc.blockStale {
		sc.blockStale[b] = true
	}
}

// blockNoteMove maintains the cached block minima across one vertex move:
// the source partition's load dropped (it can only improve its block's
// cached minimum), the destination's rose (if it was its block's cached
// argmin, the cache must be recomputed before its next use).
func (sc *scratch) blockNoteMove(idx *CostIndex, from, to int32, qFrom float64) {
	bf := idx.blockOf[from]
	if !sc.blockStale[bf] &&
		(qFrom < sc.blockMinQ[bf] || (qFrom == sc.blockMinQ[bf] && from < sc.blockMinIdx[bf])) {
		sc.blockMinQ[bf], sc.blockMinIdx[bf] = qFrom, from
	}
	bt := idx.blockOf[to]
	if !sc.blockStale[bt] && sc.blockMinIdx[bt] == to {
		sc.blockStale[bt] = true
	}
}
