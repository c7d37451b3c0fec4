package lu

import (
	"fmt"
	"runtime"
	"slices"
	"testing"

	"kdash/internal/gen"
	"kdash/internal/sparse"
)

// sameFactors reports where two factorizations differ: any pointer,
// row index, value bit or dirty flag.
func sameFactors(got, want *Factors) error {
	switch {
	case !slices.Equal(got.lPtr, want.lPtr) || !slices.Equal(got.lRow, want.lRow) || !slices.Equal(valBits(got.lVal), valBits(want.lVal)):
		return fmt.Errorf("L differs")
	case !slices.Equal(got.uPtr, want.uPtr) || !slices.Equal(got.uRow, want.uRow) || !slices.Equal(valBits(got.uVal), valBits(want.uVal)):
		return fmt.Errorf("U differs")
	case !slices.Equal(got.dirty, want.dirty):
		return fmt.Errorf("dirty flags differ")
	}
	return nil
}

// TestRefactorizeWBitIdentical: factorizing W = I - (1-c)A from A's
// columns gives BuildW's factorization bit for bit, dirty flags
// included, whatever the size hint — none, exact, far too small (the
// shared arrays regrow many times) or far too large.
func TestRefactorizeWBitIdentical(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		g := gen.DirectedScaleFree(20+15*int(seed), 3, 0.6, 0.3, seed)
		a0 := g.ColumnNormalized()
		// The next epoch: a few edges added to and removed from g.
		d := g.NewDelta()
		for k := 0; k < 3; k++ {
			u := (int(seed)*7 + 13*k) % g.N()
			if err := d.AddEdge(u, (u+k+1)%g.N(), 1); err != nil {
				t.Fatal(err)
			}
		}
		g1, err := g.Apply(d)
		if err != nil {
			t.Fatal(err)
		}
		a1 := g1.ColumnNormalized()
		changed := a1.ChangedColumns(a0)
		for _, c := range []float64{0.5, 0.95} {
			for _, tc := range []struct {
				a       *sparse.CSC
				changed []bool
			}{{a0, nil}, {a1, changed}} {
				want, err := Refactorize(BuildW(tc.a, c), tc.changed, 0)
				if err != nil {
					t.Fatal(err)
				}
				exact := want.NNZL() + want.NNZU()
				for _, hint := range []int{0, exact, 1, 10 * exact} {
					got, err := RefactorizeW(tc.a, c, tc.changed, hint)
					if err != nil {
						t.Fatal(err)
					}
					if err := sameFactors(got, want); err != nil {
						t.Fatalf("seed %d c %v changed %v hint %d: %v", seed, c, tc.changed != nil, hint, err)
					}
				}
			}
		}
	}
}

// TestRefactorizeSizedByHint pins what the size hint buys: with the
// previous epoch's NNZL()+NNZU() the factors are allocated once, at
// their size plus a sixteenth, next to O(n) workspaces — where growing
// them by append allocates about five times their size. An update
// server's peak RSS carries every byte a rebuild allocates.
func TestRefactorizeSizedByHint(t *testing.T) {
	w := arrowW(3, 20, 90, 199)
	want, err := Decompose(w)
	if err != nil {
		t.Fatal(err)
	}
	n, hint := w.Cols, want.NNZL()+want.NNZU()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	got, err := Refactorize(w, nil, hint)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if err := sameFactors(got, want); err != nil {
		t.Fatal(err)
	}
	stored := hint - n
	budget := 12*(stored+hint/16) + 96*n + 16<<10
	if alloc := int(after.TotalAlloc - before.TotalAlloc); alloc > budget {
		t.Fatalf("factorizing %d stored entries with their count as the hint allocated %d bytes, budget %d", stored, alloc, budget)
	}
}
