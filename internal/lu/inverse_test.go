package lu

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// TestInverseSolveMatchesSubstitution checks the dense reference apply
// U^{-1} L^{-1} r against the exact substitution solve on both
// right-hand-side shapes the L^{-1} pass distinguishes: a sparse
// restart-style vector (skip-zero) and a fully dense one (accumulate).
func TestInverseSolveMatchesSubstitution(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(30)
		w, _ := randomW(seed, n, 4*n, 0.8+0.19*rng.Float64())
		fac, err := Decompose(w)
		if err != nil {
			t.Fatal(err)
		}
		inv := fac.Invert(Options{Workers: 1})
		sparse := make([]float64, n)
		sparse[rng.Intn(n)] = 0.5 + rng.Float64()
		dense := make([]float64, n)
		for i := range dense {
			dense[i] = rng.NormFloat64()
		}
		for v, b := range [][]float64{sparse, dense} {
			got, want := inv.Solve(b), fac.SolveDense(b)
			for i := range want {
				if math.Abs(got[i]-want[i]) > 1e-9*(1+math.Abs(want[i])) {
					t.Errorf("rhs %d entry %d: %v vs %v", v, i, got[i], want[i])
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
