package shard

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"kdash/internal/lu"
	"kdash/internal/mmapio"
	"kdash/internal/reorder"
	"kdash/internal/testutil"
)

// plainLines decodes a factor's lines into plain ids and values, a unit
// factor's diagonal put back as each line's first entry (id j, 1.0).
func plainLines(m *lu.Compact) (ids [][]int, vals [][]float64) {
	ids, vals = make([][]int, m.N), make([][]float64, m.N)
	for j := 0; j < m.N; j++ {
		if m.Unit {
			ids[j], vals[j] = []int{j}, []float64{1}
		}
		ids[j] = m.Line(j, ids[j])
		vals[j] = append(vals[j], m.Val[m.Ptr[j]:m.Ptr[j+1]]...)
	}
	return ids, vals
}

// TestFactorsStoreNeitherDiagonalNorSinkRow: on every testutil shape,
// built as 1, 2 and 8 Hybrid shards and saved, no L^{-1} line of a
// shard file stores its own diagonal or the shard's sink row (Hybrid
// orders the sink last), and every shard's split solve — SolveLower,
// then UpperDot on every owned node — equals, bit for bit, the plain
// kernel over the file's factors with L^{-1}'s unit diagonal put back,
// which is the kernel of the generation that stored it.
func TestFactorsStoreNeitherDiagonalNorSinkRow(t *testing.T) {
	bits := math.Float64bits
	for name, g := range testutil.Shapes(7) {
		for _, shards := range []int{1, 2, 8} {
			sx, err := Build(g, Options{Shards: shards, Reorder: reorder.Hybrid, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			if err := sx.Save(dir); err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(int64(shards)))
			sinks := 0
			for si, p := range sx.parts {
				label := fmt.Sprintf("%s shards=%d si=%d", name, shards, si)
				blob, err := os.ReadFile(filepath.Join(dir, fmt.Sprintf("shard-%04d.idx", si)))
				if err != nil {
					t.Fatal(err)
				}
				f, err := mmapio.FromBytes(blob)
				if err != nil {
					t.Fatal(err)
				}
				perm, err := f.Int32s(2)
				if err != nil {
					t.Fatal(err)
				}
				l, u := readFactor(t, f, decodedIDs[8]), readFactor(t, f, decodedIDs[11])
				sink := -1
				if p.sink {
					sinks++
					if sink = int(perm[len(p.nodes)]); sink != l.N-1 {
						t.Fatalf("%s: the sink is row %d of %d", label, sink, l.N)
					}
				}
				for j := 0; j < l.N; j++ {
					if ids := l.Line(j, nil); slices.Contains(ids, j) || slices.Contains(ids, sink) {
						t.Fatalf("%s: L^-1 line %d stores its diagonal or the sink row %d: %v", label, j, sink, ids)
					}
				}
				lIDs, lVals := plainLines(l)
				uIDs, uVals := plainLines(u)
				for trial := 0; trial < 4; trial++ {
					var idx []int
					var val []float64
					for lv := range p.nodes {
						if rng.Intn(4) == 0 || lv == trial%len(p.nodes) {
							idx, val = append(idx, lv), append(val, rng.Float64())
						}
					}
					w := p.ix.NewWorkspace()
					if err := p.ix.SolveLower(idx, val, w); err != nil {
						t.Fatal(err)
					}
					ref := make([]float64, l.N)
					var sup []int
					for k, lv := range idx {
						j := perm[lv]
						for e, r := range lIDs[j] {
							if ref[r] == 0 {
								sup = append(sup, r)
							}
							ref[r] += val[k] * lVals[j][e]
						}
					}
					if !slices.Equal(w.Sup, sup) || !slices.EqualFunc(w.W, ref, func(a, b float64) bool { return bits(a) == bits(b) }) {
						t.Fatalf("%s trial %d: SolveLower is not the plain kernel with the diagonal put back", label, trial)
					}
					for lv := range p.nodes {
						r, acc := perm[lv], 0.0
						for e, c := range uIDs[r] {
							acc += uVals[r][e] * ref[c]
						}
						if got := p.ix.UpperDot(lv, w); bits(got) != bits(acc) {
							t.Fatalf("%s trial %d: UpperDot(%d) = %v, plain %v", label, trial, lv, got, acc)
						}
					}
				}
			}
			if shards > 1 && sinks == 0 {
				t.Fatalf("%s shards=%d: no shard has a sink", name, shards)
			}
		}
	}
}
