package lu

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// randomSparseRHS draws a few nonzero entries with ascending indices.
func randomSparseRHS(rng *rand.Rand, n int) ([]int, []float64) {
	nnz := 1 + rng.Intn(4)
	if nnz > n {
		nnz = n // tiny matrices have fewer distinct indices than the draw
	}
	seen := make(map[int]bool, nnz)
	idx := make([]int, 0, nnz)
	for len(idx) < nnz {
		i := rng.Intn(n)
		if !seen[i] {
			seen[i] = true
			idx = append(idx, i)
		}
	}
	sort.Ints(idx)
	val := make([]float64, len(idx))
	for k := range val {
		val[k] = 0.5 + rng.Float64()
	}
	return idx, val
}

// TestSparseSolverMatchesBatchReference property-tests the single-lane
// support-tracked solver against the plain Inverse.Solve reference on
// random factorizable matrices: bit-identical on the returned support,
// exactly zero off it. Repeated solves against one solver instance —
// sparse and dense right-hand sides interleaved — exercise workspace
// recycling across both the scatter and the sweep apply, including the
// transitions between them (stale-output reclamation).
func TestSparseSolverMatchesBatchReference(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(40)
		w, _ := randomW(seed, n, 3*n, 0.8+0.19*rng.Float64())
		fac, err := Decompose(w)
		if err != nil {
			t.Fatal(err)
		}
		inv := fac.Invert(Options{Workers: 1})
		s := inv.NewSparseSolver()
		for trial := 0; trial < 6; trial++ {
			var idx []int
			var val []float64
			if trial%3 == 2 {
				// Fully dense right-hand side: forces the sweep fallback.
				for i := 0; i < n; i++ {
					idx = append(idx, i)
					val = append(val, rng.NormFloat64())
				}
			} else {
				idx, val = randomSparseRHS(rng, n)
			}
			out, sup := s.Solve(idx, val)

			r := make([]float64, n)
			for k, i := range idx {
				r[i] = val[k]
			}
			want := inv.Solve(r)

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
				if onSup[i] {
					if out[i] != want[i] {
						t.Errorf("seed %d trial %d row %d: sparse %v != reference %v", seed, trial, i, out[i], want[i])
						return false
					}
				} else if want[i] != 0 {
					t.Errorf("seed %d trial %d row %d outside support, but reference is %v", seed, trial, i, want[i])
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestUpperRowDotMatchesSolve pins the split solve: SolveLower followed
// by one UpperRowDot per row reproduces every row Solve writes bit for
// bit — through the column scatter and the dense sweep alike — and is
// exactly zero off Solve's support.
func TestUpperRowDotMatchesSolve(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(40)
		w, _ := randomW(seed, n, 3*n, 0.8+0.19*rng.Float64())
		fac, err := Decompose(w)
		if err != nil {
			t.Fatal(err)
		}
		inv := fac.Invert(Options{Workers: 1})
		s := inv.NewSparseSolver()
		ws := inv.NewWorkspace()
		for trial := 0; trial < 6; trial++ {
			var idx []int
			var val []float64
			if trial%3 == 2 {
				for i := 0; i < n; i++ {
					idx = append(idx, i)
					val = append(val, 0.5+rng.Float64())
				}
			} else {
				idx, val = randomSparseRHS(rng, n)
			}
			out, sup := s.Solve(idx, val)
			onSup := make([]bool, n)
			for _, i := range supOrAll(sup, n) {
				onSup[i] = true
			}
			inv.SolveLower(ws, idx, val)
			for u := 0; u < n; u++ {
				got := inv.UpperRowDot(u, ws.W)
				want := 0.0
				if onSup[u] {
					want = out[u]
				}
				if got != want {
					t.Errorf("seed %d trial %d row %d: row dot %v, Solve %v", seed, trial, u, got, want)
					return false
				}
			}
			ws.Reset()
			for i, v := range ws.W {
				if v != 0 {
					t.Errorf("seed %d trial %d: workspace row %d = %v after Reset", seed, trial, i, v)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestSparseSolverZeroValuesSkipped pins that explicitly-zero right-hand
// side entries cost nothing and change nothing, matching the dense
// reference's skip-zero behaviour.
func TestSparseSolverZeroValuesSkipped(t *testing.T) {
	w, _ := randomW(4, 20, 60, 0.9)
	fac, err := Decompose(w)
	if err != nil {
		t.Fatal(err)
	}
	inv := fac.Invert(Options{Workers: 1})
	s := inv.NewSparseSolver()
	out1, sup1 := s.Solve([]int{3}, []float64{1})
	got := make([]float64, inv.N)
	for _, i := range supOrAll(sup1, inv.N) {
		got[i] = out1[i]
	}
	out2, sup2 := s.Solve([]int{1, 3, 7}, []float64{0, 1, 0})
	for _, i := range supOrAll(sup2, inv.N) {
		if out2[i] != got[i] {
			t.Fatalf("row %d: %v with zero-padded rhs, %v without", i, out2[i], got[i])
		}
		got[i] = 0
	}
	for i, v := range got {
		if v != 0 {
			t.Fatalf("row %d written by first solve but absent from second support (%v)", i, v)
		}
	}
}

func supOrAll(sup []int, n int) []int {
	if sup != nil {
		return sup
	}
	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	return all
}
