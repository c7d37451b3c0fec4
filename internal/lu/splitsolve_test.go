package lu

import (
	"math/rand"
	"slices"
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

// identity returns the permutation that maps every id to itself.
func identity(n int) []int32 {
	perm := make([]int32, n)
	for i := range perm {
		perm[i] = int32(i)
	}
	return perm
}

// randomRHS draws trial's right-hand side: every third one fully dense,
// the rest a few ascending nonzeros.
func randomRHS(rng *rand.Rand, n, trial int) ([]int, []float64) {
	if trial%3 != 2 {
		return randomSparseRHS(rng, n)
	}
	idx, val := make([]int, n), make([]float64, n)
	for i := range idx {
		idx[i], val[i] = i, rng.NormFloat64()
	}
	return idx, val
}

// TestSparseSolverMatchesBatchReference property-tests the split solve
// against the plain Inverse.Solve reference on random factorizable
// matrices: SolveLower followed by one UpperRowDot per row reproduces
// every row of the solution bit for bit, and a row whose U^{-1} row
// misses the pass's support is exactly zero in the reference. One
// workspace runs every trial, sparse and dense right-hand sides
// interleaved, so a row Reset fails to clean shows up as a wrong value
// in the next trial.
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
		ws := inv.NewWorkspace()
		id := identity(n)
		for trial := 0; trial < 9; trial++ {
			idx, val := randomRHS(rng, n, trial)
			r := make([]float64, n)
			for k, i := range idx {
				r[i] = val[k]
			}
			want := inv.Solve(r)

			inv.SolveLower(ws, idx, val, id)
			onSup := make([]bool, n)
			for _, i := range ws.Sup {
				onSup[i] = true
			}
			for i, v := range ws.W {
				if v != 0 && !onSup[i] {
					t.Errorf("seed %d trial %d: workspace row %d = %v off the support", seed, trial, i, v)
					return false
				}
			}
			for u := 0; u < n; u++ {
				if got := inv.UpperRowDot(u, ws.W); got != want[u] {
					t.Errorf("seed %d trial %d row %d: row dot %v, Solve %v", seed, trial, u, got, want[u])
					return false
				}
				reached := false
				for _, c := range inv.Uinv.Line(u, nil) {
					reached = reached || onSup[c]
				}
				if !reached && want[u] != 0 {
					t.Errorf("seed %d trial %d row %d: outside the support, but reference is %v", seed, trial, u, want[u])
					return false
				}
			}

			ws.Reset()
			for i, v := range ws.W {
				if v != 0 || len(ws.Sup) != 0 {
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

// TestUpperRowDotMatchesSolve pins the permuted split solve: SolveLower
// through a random permutation (perm maps the pre-image ids the caller
// passes to the same internal rows) lands on the same workspace as the
// direct pass, and its row dots reproduce every row of Inverse.Solve
// bit for bit. Both workspaces are reused across trials.
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
		ws, pws := inv.NewWorkspace(), inv.NewWorkspace()
		id, perm := identity(n), make([]int32, n)
		pre := make([]int, n) // pre[perm[i]] = i
		for i, r := range rng.Perm(n) {
			perm[i], pre[r] = int32(r), i
		}
		for trial := 0; trial < 9; trial++ {
			idx, val := randomRHS(rng, n, trial)
			r := make([]float64, n)
			for k, i := range idx {
				r[i] = val[k]
			}
			want := inv.Solve(r)

			pidx := make([]int, len(idx))
			for k, i := range idx {
				pidx[k] = pre[i]
			}
			inv.SolveLower(ws, idx, val, id)
			inv.SolveLower(pws, pidx, val, perm)
			if !slices.Equal(pws.W, ws.W) || !slices.Equal(pws.Sup, ws.Sup) {
				t.Errorf("seed %d trial %d: permuted pass diverged from the direct one", seed, trial)
				return false
			}
			for u := 0; u < n; u++ {
				if got := inv.UpperRowDot(u, pws.W); got != want[u] {
					t.Errorf("seed %d trial %d row %d: row dot %v, Solve %v", seed, trial, u, got, want[u])
					return false
				}
			}
			ws.Reset()
			pws.Reset()
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestSolveLowerZeroValuesSkipped pins that explicitly-zero right-hand
// side entries cost nothing and change nothing, matching the dense
// reference's skip-zero behaviour: the zero-padded pass leaves the same
// workspace, support included, as the pass without the padding.
func TestSolveLowerZeroValuesSkipped(t *testing.T) {
	w, _ := randomW(4, 20, 60, 0.9)
	fac, err := Decompose(w)
	if err != nil {
		t.Fatal(err)
	}
	inv := fac.Invert(Options{Workers: 1})
	plain, padded := inv.NewWorkspace(), inv.NewWorkspace()
	id := identity(inv.N)
	inv.SolveLower(plain, []int{3}, []float64{1}, id)
	inv.SolveLower(padded, []int{1, 3, 7}, []float64{0, 1, 0}, id)
	if !slices.Equal(plain.W, padded.W) || !slices.Equal(plain.Sup, padded.Sup) {
		t.Fatalf("zero-padded rhs changed the pass: support %v, want %v", padded.Sup, plain.Sup)
	}
}
