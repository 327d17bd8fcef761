package core

import (
	"testing"

	"hyperpraw/internal/profile"
	"hyperpraw/internal/stats"
)

func TestCostIndexClassifiesUniform(t *testing.T) {
	idx := BuildCostIndex(profile.UniformCost(32))
	if idx.kind != costUniform {
		t.Fatalf("uniform matrix classified as %d", idx.kind)
	}
	if idx.uniformC != 1 || idx.minOff != 1 {
		t.Fatalf("uniform constants %g/%g, want 1/1", idx.uniformC, idx.minOff)
	}
}

func TestCostIndexClassifiesHierarchical(t *testing.T) {
	for _, tc := range []struct {
		name          string
		cost          [][]float64
		wantLevels    int
		wantBlocks    int
		wantAllExact  bool
		wantSomeExact bool
	}{
		{"hier2/p=64", hier2Cost(64), 2, 8, true, true},
		{"hier3/p=64", hier3Cost(64), 3, 8, true, true},
		{"hier3/p=256", hier3Cost(256), 3, 32, true, true},
		// The profiled Archer matrix is hierarchical plus noise: blocks
		// (sockets) are detected, but no block is float-exact.
		{"archer/p=64", physCost(64, 1), 0, 6, false, false},
	} {
		idx := BuildCostIndex(tc.cost)
		if idx.kind != costBlocked {
			t.Fatalf("%s: classified as %d, want blocked", tc.name, idx.kind)
		}
		if tc.wantLevels > 0 && idx.Levels() != tc.wantLevels {
			t.Fatalf("%s: %d levels, want %d", tc.name, idx.Levels(), tc.wantLevels)
		}
		if idx.Blocks() != tc.wantBlocks {
			t.Fatalf("%s: %d blocks, want %d", tc.name, idx.Blocks(), tc.wantBlocks)
		}
		exactCount := 0
		for _, b := range idx.blocks {
			if b.exact {
				exactCount++
			}
		}
		if tc.wantAllExact && exactCount != len(idx.blocks) {
			t.Fatalf("%s: %d/%d blocks exact, want all", tc.name, exactCount, len(idx.blocks))
		}
		if !tc.wantSomeExact && exactCount != 0 {
			t.Fatalf("%s: %d blocks exact, want none", tc.name, exactCount)
		}
	}
}

func TestCostIndexClassifiesUnstructured(t *testing.T) {
	// A continuum of values has one level; few distinct values scattered
	// without block structure explode the block count. Both must fall
	// back to the legacy bounded strategy.
	rng := stats.NewRNG(7)
	p := 64
	smooth := make([][]float64, p)
	scattered := make([][]float64, p)
	for i := range smooth {
		smooth[i] = make([]float64, p)
		scattered[i] = make([]float64, p)
	}
	vals := []float64{1, 1.5, 2}
	for i := 0; i < p; i++ {
		for j := i + 1; j < p; j++ {
			v := 1 + rng.Float64()
			smooth[i][j], smooth[j][i] = v, v
			d := vals[rng.Intn(len(vals))]
			scattered[i][j], scattered[j][i] = d, d
		}
	}
	for name, cost := range map[string][][]float64{"smooth": smooth, "scattered": scattered} {
		if idx := BuildCostIndex(cost); idx.kind != costBounded {
			t.Fatalf("%s: classified as %d, want bounded", name, idx.kind)
		}
	}
}

func TestCostIndexFloorsAndOrder(t *testing.T) {
	cost := physCost(64, 3)
	idx := BuildCostIndex(cost)
	if idx.kind != costBlocked {
		t.Fatalf("expected blocked classification")
	}
	p := idx.p
	for j := 0; j < p; j++ {
		for b, blk := range idx.blocks {
			floor := idx.floorsTo[j][b]
			n := 0
			for _, i := range blk.members {
				if int(i) == j {
					continue
				}
				n++
				if cost[i][j] < floor {
					t.Fatalf("floorsTo[%d][%d]=%g above member cost %g", j, b, floor, cost[i][j])
				}
			}
			if n == 0 && floor != vacuousFloor {
				t.Fatalf("vacuous floorsTo[%d][%d]=%g, want sentinel", j, b, floor)
			}
		}
		// blockOrder[j] must be a permutation sorted by the floors.
		seen := make([]bool, len(idx.blocks))
		for k, b := range idx.blockOrder[j] {
			if seen[b] {
				t.Fatalf("blockOrder[%d] repeats block %d", j, b)
			}
			seen[b] = true
			if k > 0 {
				prev := idx.blockOrder[j][k-1]
				if idx.floorsTo[j][prev] > idx.floorsTo[j][b] {
					t.Fatalf("blockOrder[%d] not ascending at %d", j, k)
				}
			}
		}
	}
	// Exact blocks: the floor toward any outside partition equals every
	// member's cost, making the floor sum the member's exact comm term.
	for b, blk := range idx.blocks {
		if !blk.exact {
			continue
		}
		for j := 0; j < p; j++ {
			for _, i := range blk.members {
				if int(i) != j && cost[i][j] != idx.floorsTo[j][b] {
					t.Fatalf("exact block %d: floor %g != cost[%d][%d]=%g",
						b, idx.floorsTo[j][b], i, j, cost[i][j])
				}
			}
		}
	}
}

func TestCostIndexMatches(t *testing.T) {
	cost := hier2Cost(32)
	idx := BuildCostIndex(cost)
	if !idx.matches(cost) {
		t.Fatal("index does not match its own matrix")
	}
	clone := make([][]float64, len(cost))
	for i, row := range cost {
		clone[i] = append([]float64(nil), row...)
	}
	if idx.matches(clone) {
		t.Fatal("index matches a deep copy; identity check is broken")
	}
	if idx.matches(hier2Cost(64)) {
		t.Fatal("index matches a different-size matrix")
	}
	var nilIdx *CostIndex
	if nilIdx.matches(cost) {
		t.Fatal("nil index claims to match")
	}
}

// TestConfigIndexReuse pins the facade contract: a prebuilt index passed
// through Config.Index yields the identical partition, and a mismatched
// index is rebuilt rather than trusted.
func TestConfigIndexReuse(t *testing.T) {
	h := randomHG(3, 300, 400, 8)
	cost := hier3Cost(32)
	base := DefaultConfig(cost)
	base.MaxIterations = 20

	pr1, err := New(h, base)
	if err != nil {
		t.Fatal(err)
	}
	defer pr1.Release()
	want := pr1.Run()

	withIdx := base
	withIdx.Index = BuildCostIndex(cost)
	pr2, err := New(h, withIdx)
	if err != nil {
		t.Fatal(err)
	}
	defer pr2.Release()
	if pr2.cidx != withIdx.Index {
		t.Fatal("matching prebuilt index was not adopted")
	}
	got := pr2.Run()
	for v := range want.Parts {
		if got.Parts[v] != want.Parts[v] {
			t.Fatalf("vertex %d: %d with prebuilt index, %d without", v, got.Parts[v], want.Parts[v])
		}
	}

	mismatched := base
	mismatched.Index = BuildCostIndex(hier3Cost(32)) // same shape, different instance
	pr3, err := New(h, mismatched)
	if err != nil {
		t.Fatal(err)
	}
	defer pr3.Release()
	if pr3.cidx == mismatched.Index {
		t.Fatal("mismatched index was adopted without a rebuild")
	}
}
