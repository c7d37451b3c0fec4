package core

import (
	"math/rand"
	"testing"
)

// TestSparseSolverMatchesSolveAndBatch property-tests the single-lane
// sparse fast path against the dense reference on random graphs:
// values must be bit-identical to Index.Solve on the returned support,
// and every row outside the support must be exactly zero in the dense
// answer. One solver instance runs all trials, so stale-workspace bugs
// across sparse/dense right-hand sides and scatter/sweep transitions
// surface as mismatches.
func TestSparseSolverMatchesSolveAndBatch(t *testing.T) {
	for _, tc := range []struct {
		seed int64
		n    int
	}{{2, 60}, {7, 130}, {11, 220}} {
		ix := batchTestIndex(t, tc.seed, tc.n)
		rng := rand.New(rand.NewSource(tc.seed))
		n := ix.N()
		s := ix.NewSparseSolver()
		for trial := 0; trial < 9; trial++ {
			r := make([]float64, n)
			switch trial % 3 {
			case 0: // restart vector
				r[rng.Intn(n)] = 1
			case 1: // sparse residual-style rhs
				for i := 0; i < 8; i++ {
					r[rng.Intn(n)] += rng.Float64()
				}
			default: // dense rhs: forces the sweep fallback
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
			got, sup, err := s.SolveSparse(idx, val)
			if err != nil {
				t.Fatal(err)
			}
			want, err := ix.Solve(r)
			if err != nil {
				t.Fatal(err)
			}
			onSup := make([]bool, n)
			if sup == nil {
				for i := range onSup {
					onSup[i] = true
				}
			} else {
				for _, i := range sup {
					onSup[i] = true
				}
			}
			for i := 0; i < n; i++ {
				if !onSup[i] {
					if want[i] != 0 {
						t.Fatalf("seed %d trial %d row %d outside support, but Solve gives %v", tc.seed, trial, i, want[i])
					}
					continue
				}
				if got[i] != want[i] {
					t.Fatalf("seed %d trial %d row %d: SolveSparse %v != Solve %v", tc.seed, trial, i, got[i], want[i])
				}
			}
		}
	}
}

// TestSparseSolverValidation pins the input contract: parallel slices,
// in-range ids, strictly ascending order.
func TestSparseSolverValidation(t *testing.T) {
	ix := batchTestIndex(t, 3, 40)
	s := ix.NewSparseSolver()
	if _, _, err := s.SolveSparse([]int{1, 2}, []float64{1}); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, _, err := s.SolveSparse([]int{-1}, []float64{1}); err == nil {
		t.Error("negative id accepted")
	}
	if _, _, err := s.SolveSparse([]int{ix.N()}, []float64{1}); err == nil {
		t.Error("out-of-range id accepted")
	}
	if _, _, err := s.SolveSparse([]int{5, 5}, []float64{1, 1}); err == nil {
		t.Error("duplicate id accepted")
	}
	if _, _, err := s.SolveSparse([]int{5, 3}, []float64{1, 1}); err == nil {
		t.Error("descending ids accepted")
	}
	if _, sup, err := s.SolveSparse(nil, nil); err != nil || sup == nil || len(sup) != 0 {
		t.Errorf("empty rhs: sup=%v err=%v, want non-nil empty support and no error", sup, err)
	}
}

// TestProximityVectorUsesPooledSolver checks the rewritten
// ProximityVector against the per-entry Proximity oracle, repeatedly, so
// pooled-solver reuse across queries cannot leak state between calls.
func TestProximityVectorUsesPooledSolver(t *testing.T) {
	ix := batchTestIndex(t, 9, 80)
	for _, q := range []int{0, 17, 3, 17, 79} {
		vec, err := ix.ProximityVector(q)
		if err != nil {
			t.Fatal(err)
		}
		for _, u := range []int{0, 1, q, 40, 79} {
			want, err := ix.Proximity(q, u)
			if err != nil {
				t.Fatal(err)
			}
			if vec[u] != want {
				t.Fatalf("q=%d u=%d: vector %v != Proximity %v", q, u, vec[u], want)
			}
		}
	}
}
