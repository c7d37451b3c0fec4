package lu

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"kdash/internal/sparse"
)

// randomDominant returns an n x n matrix, strictly diagonally dominant
// by columns, with about perCol random off-diagonal entries per column.
func randomDominant(rng *rand.Rand, n, perCol int) *sparse.CSC {
	coo := sparse.NewCOO(n, n)
	for j := 0; j < n; j++ {
		sum := 0.0
		for k := 0; k < perCol && n > 1; k++ {
			i := rng.Intn(n)
			if i == j {
				continue
			}
			v := rng.Float64()*2 - 1
			coo.Add(i, j, v)
			sum += max(v, -v)
		}
		// Duplicates sum, which only lowers the column's absolute sum.
		coo.Add(j, j, sum+0.5+rng.Float64())
	}
	return coo.ToCSC()
}

// perturb returns a copy of w whose listed columns carry new values on
// the same pattern, each staying strictly dominant.
func perturb(rng *rand.Rand, w *sparse.CSC, cols []int) *sparse.CSC {
	out := &sparse.CSC{Rows: w.Rows, Cols: w.Cols, ColPtr: slices.Clone(w.ColPtr), RowIdx: slices.Clone(w.RowIdx), Val: slices.Clone(w.Val)}
	for _, j := range cols {
		sum, diag := 0.0, -1
		for p := out.ColPtr[j]; p < out.ColPtr[j+1]; p++ {
			if int(out.RowIdx[p]) == j {
				diag = p
				continue
			}
			out.Val[p] = rng.Float64()*2 - 1
			sum += max(out.Val[p], -out.Val[p])
		}
		out.Val[diag] = sum + 0.5 + rng.Float64()
	}
	return out
}

// refill returns a copy of w whose column j has its off-diagonal
// pattern replaced by rows (values random, diagonal dominant): adding
// rows creates fill in the columns after j, dropping them removes it.
func refill(rng *rand.Rand, w *sparse.CSC, j int, rows []int) *sparse.CSC {
	coo := sparse.NewCOO(w.Rows, w.Cols)
	for c := 0; c < w.Cols; c++ {
		if c == j {
			continue
		}
		for p := w.ColPtr[c]; p < w.ColPtr[c+1]; p++ {
			coo.Add(int(w.RowIdx[p]), c, w.Val[p])
		}
	}
	sum := 0.0
	for _, i := range rows {
		if i != j {
			v := rng.Float64()*2 - 1
			coo.Add(i, j, v)
			sum += max(v, -v)
		}
	}
	coo.Add(j, j, sum+0.5+rng.Float64())
	return coo.ToCSC()
}

// sameInverse reports whether two inverses agree in every index and
// every value bit of L^-1 and U^-1.
func sameInverse(a, b *Inverse) error {
	if err := sameCompact(a.Linv, b.Linv); err != nil {
		return fmt.Errorf("L^-1 differs: %w", err)
	}
	if err := sameCompact(a.Uinv, b.Uinv); err != nil {
		return fmt.Errorf("U^-1 differs: %w", err)
	}
	return nil
}

// sameCompact reports the first array in which two encoded factors
// differ, comparing values by their bits.
func sameCompact(a, b *Compact) error {
	switch {
	case a.N != b.N || a.Rows != b.Rows || a.Unit != b.Unit:
		return fmt.Errorf("n, rows, unit %d, %d, %v vs %d, %d, %v", a.N, a.Rows, a.Unit, b.N, b.Rows, b.Unit)
	case !slices.Equal(a.Ptr, b.Ptr):
		return fmt.Errorf("pointers differ")
	case !slices.Equal(a.Gap, b.Gap):
		return fmt.Errorf("gaps differ")
	case !slices.Equal(a.EscPtr, b.EscPtr):
		return fmt.Errorf("escape pointers differ")
	case !slices.Equal(a.Esc, b.Esc):
		return fmt.Errorf("escapes differ")
	case !slices.Equal(valBits(a.Val), valBits(b.Val)):
		return fmt.Errorf("values differ")
	}
	return nil
}

// TestInvertReuseBitIdentical: refactorizing a perturbed matrix against
// the unperturbed one's inverse must give the from-scratch inverse bit
// for bit, whichever columns changed — none, the first, the last, one
// in the middle, a random few, all, or a pattern that adds or drops
// fill — serially and in parallel, and again one epoch later from the
// reused inverse.
func TestInvertReuseBitIdentical(t *testing.T) {
	for _, n := range []int{1, 2, 30, 120} {
		rng := rand.New(rand.NewSource(int64(n)))
		w0 := randomDominant(rng, n, 3)
		mid := n / 2
		cases := []struct {
			name string
			w    *sparse.CSC
		}{
			{"none", perturb(rng, w0, nil)},
			{"first", perturb(rng, w0, []int{0})},
			{"last", perturb(rng, w0, []int{n - 1})},
			{"middle", perturb(rng, w0, []int{mid})},
			{"random", perturb(rng, w0, []int{rng.Intn(n), rng.Intn(n), rng.Intn(n)})},
			{"all", perturb(rng, w0, func() []int {
				all := make([]int, n)
				for j := range all {
					all[j] = j
				}
				return all
			}())},
			{"add-fill", refill(rng, w0, mid, []int{0, n - 1, mid / 2, mid + (n-mid)/2, rng.Intn(n), rng.Intn(n)})},
			{"drop-fill", refill(rng, w0, mid, nil)},
		}
		for _, workers := range []int{1, 3} {
			f0, err := Decompose(w0)
			if err != nil {
				t.Fatal(err)
			}
			inv0 := mustInvert(f0, Options{Workers: workers})
			for _, tc := range cases {
				label := fmt.Sprintf("n=%d %s workers=%d", n, tc.name, workers)
				fresh, err := Decompose(tc.w)
				if err != nil {
					t.Fatal(err)
				}
				want := mustInvert(fresh, Options{Workers: workers})
				re, err := Refactorize(tc.w, tc.w.ChangedColumns(w0), 0)
				if err != nil {
					t.Fatal(err)
				}
				got := mustInvert(re, Options{Workers: workers, Prev: inv0})
				if err := sameInverse(got, want); err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				switch tc.name {
				case "none":
					if got.Reused != 2*n {
						t.Errorf("%s: reused %d of %d columns, want all", label, got.Reused, 2*n)
					}
				case "all":
					if got.Reused != 0 {
						t.Errorf("%s: reused %d columns of a fully changed matrix", label, got.Reused)
					}
				}
				if want.Reused != 0 {
					t.Errorf("%s: a from-scratch inversion reports %d reused columns", label, want.Reused)
				}

				// One epoch further, from the reused inverse.
				w2 := perturb(rng, tc.w, []int{rng.Intn(n)})
				fresh2, err := Decompose(w2)
				if err != nil {
					t.Fatal(err)
				}
				re2, err := Refactorize(w2, w2.ChangedColumns(tc.w), 0)
				if err != nil {
					t.Fatal(err)
				}
				if err := sameInverse(mustInvert(re2, Options{Workers: workers, Prev: got}), mustInvert(fresh2, Options{Workers: workers})); err != nil {
					t.Fatalf("%s, next epoch: %v", label, err)
				}
			}
		}
	}
}

// TestInvertReuseCopiesUntouchedColumns pins where the reuse comes
// from on a block-diagonal matrix: a change in one block's last column
// leaves every other block's columns, and the changed block's U^-1
// columns before it, to be copied.
func TestInvertReuseCopiesUntouchedColumns(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const blocks, size = 4, 25
	n := blocks * size
	coo := sparse.NewCOO(n, n)
	for b := 0; b < blocks; b++ {
		for j := b * size; j < (b+1)*size; j++ {
			sum := 0.0
			for k := 0; k < 3; k++ {
				i := b*size + rng.Intn(size)
				if i != j {
					v := rng.Float64()*2 - 1
					coo.Add(i, j, v)
					sum += max(v, -v)
				}
			}
			coo.Add(j, j, sum+1)
		}
	}
	w0 := coo.ToCSC()
	last := 2*size - 1 // the last column of block 1
	w1 := perturb(rng, w0, []int{last})
	f0, err := Decompose(w0)
	if err != nil {
		t.Fatal(err)
	}
	re, err := Refactorize(w1, w1.ChangedColumns(w0), 0)
	if err != nil {
		t.Fatal(err)
	}
	inv := mustInvert(re, Options{Workers: 1, Prev: mustInvert(f0, Options{Workers: 1})})
	// Solved: U^-1's column `last` (no later column of its block reads
	// it) and at most block 1's L^-1 columns; at least both columns
	// `last` itself.
	if lo, hi := 2*n-1-size, 2*n-2; inv.Reused < lo || inv.Reused > hi {
		t.Fatalf("reused %d columns, want %d to %d", inv.Reused, lo, hi)
	}
}
