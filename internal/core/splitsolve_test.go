package core

import (
	"math/rand"
	"slices"
	"testing"
)

// TestSplitSolveMatchesSolve property-tests the split solve against the
// dense reference on random graphs: SolveLower followed by one UpperDot
// per node must equal Index.Solve bit for bit on every row. One
// workspace runs all trials — restart, sparse residual-style and dense
// right-hand sides interleaved — so a row Reset fails to clean surfaces
// as a mismatch in a later trial.
func TestSplitSolveMatchesSolve(t *testing.T) {
	for _, tc := range []struct {
		seed int64
		n    int
	}{{2, 60}, {7, 130}, {11, 220}} {
		ix := plantedIndex(t, tc.seed, tc.n)
		rng := rand.New(rand.NewSource(tc.seed))
		n := ix.N()
		w := ix.NewWorkspace()
		for trial := 0; trial < 9; trial++ {
			r := make([]float64, n)
			switch trial % 3 {
			case 0: // restart vector
				r[rng.Intn(n)] = 1
			case 1: // sparse residual-style rhs
				for i := 0; i < 8; i++ {
					r[rng.Intn(n)] += rng.Float64()
				}
			default: // dense rhs
				for i := range r {
					r[i] = rng.Float64()
				}
			}
			var idx []int
			var val []float64
			for i, v := range r {
				if v != 0 {
					idx = append(idx, i)
					val = append(val, v)
				}
			}
			if err := ix.SolveLower(idx, val, w); err != nil {
				t.Fatal(err)
			}
			want, err := ix.Solve(r)
			if err != nil {
				t.Fatal(err)
			}
			for u := 0; u < n; u++ {
				if got := ix.UpperDot(u, w); got != want[u] {
					t.Fatalf("seed %d trial %d node %d: UpperDot %v != Solve %v", tc.seed, trial, u, got, want[u])
				}
			}
			w.Reset()
		}
	}
}

// TestSolveLowerValidation pins the input contract — parallel slices,
// in-range ids, strictly ascending order — and that a rejected
// right-hand side writes no row: the workspace keeps exactly the pass
// it held before the call, even when the bad entry follows good ones.
// The worker surface's hostile-input contract rests on this.
func TestSolveLowerValidation(t *testing.T) {
	ix := plantedIndex(t, 3, 40)
	w := ix.NewWorkspace()
	if err := ix.SolveLower([]int{7}, []float64{0.5}, w); err != nil {
		t.Fatal(err)
	}
	wantW, wantSup := slices.Clone(w.W), slices.Clone(w.Sup)
	for name, rhs := range map[string]struct {
		idx []int
		val []float64
	}{
		"length mismatch":    {[]int{1, 2}, []float64{1}},
		"negative id":        {[]int{-1}, []float64{1}},
		"out-of-range id":    {[]int{2, ix.N()}, []float64{1, 1}},
		"duplicate id":       {[]int{5, 5}, []float64{1, 1}},
		"descending ids":     {[]int{5, 3}, []float64{1, 1}},
		"bad after good ids": {[]int{1, 9, 4}, []float64{1, 1, 1}},
	} {
		if err := ix.SolveLower(rhs.idx, rhs.val, w); err == nil {
			t.Errorf("%s: accepted", name)
		}
		if !slices.Equal(w.W, wantW) || !slices.Equal(w.Sup, wantSup) {
			t.Fatalf("%s: rejected rhs wrote the workspace (support %v, want %v)", name, w.Sup, wantSup)
		}
	}
	w.Reset()
	if err := ix.SolveLower(nil, nil, w); err != nil || w.Sup == nil || len(w.Sup) != 0 {
		t.Errorf("empty rhs: sup=%v err=%v, want non-nil empty support and no error", w.Sup, err)
	}
}
