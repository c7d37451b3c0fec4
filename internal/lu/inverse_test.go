package lu

import (
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"kdash/internal/gen"
	"kdash/internal/sparse"
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
		inv := mustInvert(fac, Options{Workers: 1})
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

// withSink returns W = I - (1-c)A over n+1 nodes for a random
// n x n column-normalised adjacency whose every column leaks a fifth of
// its weight to a sink, node n, last in the order. With leak, node n
// also has an out-edge to node 0, so a row below it reads its column.
func withSink(seed int64, n int, leak bool) *sparse.CSC {
	a := gen.DirectedScaleFree(n, 3, 0.6, 0.3, seed).ColumnNormalized()
	coo := sparse.NewCOO(n+1, n+1)
	for j := 0; j < n; j++ {
		for p := a.ColPtr[j]; p < a.ColPtr[j+1]; p++ {
			coo.Add(int(a.RowIdx[p]), j, 0.8*a.Val[p])
		}
		coo.Add(n, j, 0.2)
	}
	if leak {
		coo.Add(0, n, 1)
	}
	return BuildW(coo.ToCSC(), 0.9)
}

// TestInvertDropsGhostRows: inverting with the sink as a ghost row
// keeps U^{-1} as it is and L^{-1} less its sink row, bit for bit, so
// the split solve of every kept row equals the one over the full
// inverse; a previous inverse kept over other rows lends no column,
// and a sink whose column a kept row of U^{-1} holds fails the build.
func TestInvertDropsGhostRows(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		n := 20 + 25*int(seed)
		fac, err := Refactorize(withSink(seed, n, false), make([]bool, n+1), 0)
		if err != nil {
			t.Fatal(err)
		}
		full := mustInvert(fac, Options{Workers: 1})
		inv, err := fac.Invert(n, Options{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		if err := sameCompact(inv.Uinv, full.Uinv); err != nil {
			t.Fatalf("seed %d: U^-1 differs: %v", seed, err)
		}
		want := full.Linv.CSC()
		sink := 0
		keep := &sparse.CSC{Rows: n + 1, Cols: n + 1, ColPtr: make([]int, n+2)}
		for j := 0; j <= n; j++ {
			for p := want.ColPtr[j]; p < want.ColPtr[j+1]; p++ {
				if int(want.RowIdx[p]) == n && j != n {
					sink++
					continue
				}
				keep.RowIdx = append(keep.RowIdx, want.RowIdx[p])
				keep.Val = append(keep.Val, want.Val[p])
			}
			keep.ColPtr[j+1] = len(keep.RowIdx)
		}
		if sink == 0 {
			t.Fatalf("seed %d: the full L^-1 holds no sink row", seed)
		}
		if err := sameCompact(inv.Linv, CompactCSC(keep, n)); err != nil {
			t.Fatalf("seed %d: L^-1 is not the full one less its sink row: %v", seed, err)
		}
		if got := full.Linv.NNZ() - inv.Linv.NNZ(); got != sink {
			t.Fatalf("seed %d: %d entries dropped, the sink row holds %d", seed, got, sink)
		}
		rng := rand.New(rand.NewSource(seed))
		perm := make([]int32, n+1)
		for i := range perm {
			perm[i] = int32(i)
		}
		for trial := 0; trial < 4; trial++ {
			idx := []int{rng.Intn(n), n - 1 - rng.Intn(n/2)}
			slices.Sort(idx)
			idx = slices.Compact(idx)
			val := []float64{rng.Float64(), rng.Float64()}[:len(idx)]
			got, ref := inv.NewWorkspace(), full.NewWorkspace()
			inv.SolveLower(got, idx, val, perm)
			full.SolveLower(ref, idx, val, perm)
			for u := 0; u < n; u++ {
				if a, b := inv.UpperRowDot(u, got.W), full.UpperRowDot(u, ref.W); math.Float64bits(a) != math.Float64bits(b) {
					t.Fatalf("seed %d row %d: %v with the ghost row dropped, %v with it", seed, u, a, b)
				}
			}
		}
		if re, err := fac.Invert(n, Options{Workers: 1, Prev: inv}); err != nil || re.Reused != 2*(n+1) {
			t.Fatalf("seed %d: an unchanged refactorization reused %d of %d columns (%v)", seed, re.Reused, 2*(n+1), err)
		}
		if re, err := fac.Invert(n, Options{Workers: 1, Prev: full}); err != nil || re.Reused != 0 || sameInverse(re, inv) != nil {
			t.Fatalf("seed %d: a previous inverse that kept the sink row lent columns (%v)", seed, err)
		}
	}
	fac, err := Decompose(withSink(1, 40, true))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fac.Invert(40, Options{Workers: 1}); err == nil || !strings.Contains(err.Error(), "ghost column") {
		t.Fatalf("a kept row reading the ghost column: %v", err)
	}
}
