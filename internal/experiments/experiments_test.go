package experiments

import (
	"bytes"
	"strings"
	"testing"

	"kdash/internal/dataset"
	"kdash/internal/gen"
	"kdash/internal/reorder"
	"kdash/internal/rwr"
	"kdash/internal/topk"
)

// smallConfig keeps experiment tests fast: two tiny clustered datasets.
func smallConfig() Config {
	return Config{
		Queries: 3,
		Seed:    7,
		Datasets: []*dataset.Dataset{
			{Name: "TinyA", Graph: gen.PlantedPartition(120, 4, 0.2, 0.01, 1)},
			{Name: "TinyB", Graph: gen.BarabasiAlbert(150, 3, 2)},
		},
		Ks:    []int{5, 10},
		Ranks: []int{4, 30},
		Hubs:  []int{4, 30},
		K:     5,
	}
}

func TestPrecisionMetric(t *testing.T) {
	exact := []topk.Result{{Node: 1, Score: 0.9}, {Node: 2, Score: 0.5}}
	if p := Precision([]topk.Result{{Node: 1, Score: 0.9}, {Node: 2, Score: 0.5}}, exact); p != 1 {
		t.Errorf("identical answers precision = %v", p)
	}
	if p := Precision([]topk.Result{{Node: 1, Score: 0.9}, {Node: 9, Score: 0.1}}, exact); p != 0.5 {
		t.Errorf("half-wrong precision = %v", p)
	}
	// A tie at the k-th score counts as correct.
	if p := Precision([]topk.Result{{Node: 1, Score: 0.9}, {Node: 9, Score: 0.5}}, exact); p != 1 {
		t.Errorf("tied k-th answer precision = %v", p)
	}
	if p := Precision(nil, nil); p != 1 {
		t.Errorf("empty precision = %v", p)
	}
}

func TestFigure2Shape(t *testing.T) {
	rows, err := Figure2(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	// 2 datasets x (2 K-dash + 2 NB_LIN + 1 B_LIN + 2 BPA) = 14 rows.
	if len(rows) != 14 {
		t.Fatalf("rows = %d, want 14", len(rows))
	}
	algos := map[string]bool{}
	for _, r := range rows {
		algos[r.Algo] = true
		if r.Mean < 0 {
			t.Errorf("negative mean time %v", r.Mean)
		}
	}
	for _, want := range []string{"K-dash(5)", "K-dash(10)", "NB_LIN(4)", "NB_LIN(30)", "B_LIN(4)", "BPA(5)", "BPA(10)"} {
		if !algos[want] {
			t.Errorf("missing algo %q", want)
		}
	}
}

func TestFigure3and4Shape(t *testing.T) {
	rows, err := Figure3and4(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d, want 2 sweep points", len(rows))
	}
	for _, r := range rows {
		if r.PrecisionKDash != 1 {
			t.Errorf("K-dash precision must be 1, got %v", r.PrecisionKDash)
		}
		if r.PrecisionNBLin < 0 || r.PrecisionNBLin > 1 {
			t.Errorf("NB_LIN precision %v outside [0,1]", r.PrecisionNBLin)
		}
		if r.PrecisionBPA < 0.5 {
			t.Errorf("BPA precision suspiciously low: %v", r.PrecisionBPA)
		}
	}
	// Precision should not degrade as rank rises.
	if rows[1].PrecisionNBLin < rows[0].PrecisionNBLin-0.15 {
		t.Errorf("NB_LIN precision fell sharply with rank: %v -> %v",
			rows[0].PrecisionNBLin, rows[1].PrecisionNBLin)
	}
}

// TestKDashExactOnEveryDataset extends Figure 3's K-dash series from the
// first dataset to all of them: on each small test dataset and each of
// the five paper analogues, K-dash's top-K has precision exactly 1
// against the iterative oracle at K = 5 and 25.
func TestKDashExactOnEveryDataset(t *testing.T) {
	cfg := smallConfig()
	datasets := append(cfg.Datasets, dataset.All()...)
	for _, ds := range datasets {
		ix, err := build(ds.Graph, 0, reorder.Hybrid, cfg.Seed)
		if err != nil {
			t.Fatalf("%s: %v", ds.Name, err)
		}
		a := ds.Graph.ColumnNormalized()
		for _, q := range cfg.queryNodes(ds.Graph.N()) {
			for _, k := range []int{5, 25} {
				got, _, err := ix.TopK(q, k)
				if err != nil {
					t.Fatalf("%s q=%d k=%d: %v", ds.Name, q, k, err)
				}
				want, err := rwr.TopK(a, q, k, rwr.DefaultRestart)
				if err != nil {
					t.Fatalf("%s oracle q=%d k=%d: %v", ds.Name, q, k, err)
				}
				if p := Precision(got, want); p != 1 {
					t.Errorf("%s q=%d k=%d: K-dash precision %v, want 1", ds.Name, q, k, p)
				}
			}
		}
	}
}

func TestFigure5and6Shape(t *testing.T) {
	rows, err := Figure5and6(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 8 { // 2 datasets x 4 methods
		t.Fatalf("rows = %d, want 8", len(rows))
	}
	byKey := map[string]ReorderRow{}
	for _, r := range rows {
		if r.NNZ <= 0 || r.Ratio <= 0 || r.Precompute <= 0 {
			t.Errorf("row not populated: %+v", r)
		}
		byKey[r.Dataset+"/"+r.Method] = r
	}
	// On the clustered dataset hybrid must beat random on sparsity.
	if byKey["TinyA/Hybrid"].NNZ >= byKey["TinyA/Random"].NNZ {
		t.Errorf("hybrid nnz %d should be below random %d",
			byKey["TinyA/Hybrid"].NNZ, byKey["TinyA/Random"].NNZ)
	}
}

func TestFigure7Shape(t *testing.T) {
	rows, err := Figure7(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.PrunedFraction < 0 || r.PrunedFraction > 1 {
			t.Errorf("%s: pruned fraction %v outside [0,1]", r.Dataset, r.PrunedFraction)
		}
		if r.PrunedFraction == 0 {
			t.Errorf("%s: expected some pruning", r.Dataset)
		}
	}
}

func TestFigure9Shape(t *testing.T) {
	rows, err := Figure9(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.RandomRooted < r.QueryRooted {
			t.Errorf("%s: random root should not need fewer computations (%v vs %v)",
				r.Dataset, r.RandomRooted, r.QueryRooted)
		}
	}
}

func TestTable2CaseStudy(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the full Dictionary dataset")
	}
	cfg := Config{Queries: 3, Seed: 1, Ranks: []int{8, 16}, Hubs: []int{8, 16}, K: 5}
	rows, err := Table2(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 10 { // 5 terms x 2 methods
		t.Fatalf("rows = %d, want 10", len(rows))
	}
	for _, r := range rows {
		if len(r.Top) == 0 {
			t.Errorf("%s/%s: empty answer list", r.Term, r.Method)
		}
		if r.Method == "K-dash" && r.Top[0] != r.Term {
			t.Errorf("%s: K-dash should rank the query term first, got %v", r.Term, r.Top)
		}
	}
}

func TestCSweep(t *testing.T) {
	cfg := smallConfig()
	rows, err := CSweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if !r.Exact {
			t.Errorf("c=%v: K-dash must stay exact", r.C)
		}
	}
}

func TestDropTolAblation(t *testing.T) {
	cfg := smallConfig()
	rows, err := DropTolAblation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rows[0].DropTol != 0 || rows[0].Precision != 1 {
		t.Errorf("exact setting must have precision 1: %+v", rows[0])
	}
	// NNZ must fall monotonically as the tolerance grows.
	for i := 1; i < len(rows); i++ {
		if rows[i].NNZ > rows[i-1].NNZ {
			t.Errorf("nnz should not grow with tolerance: %+v -> %+v", rows[i-1], rows[i])
		}
	}
}

func TestFormatters(t *testing.T) {
	cfg := smallConfig()
	var buf bytes.Buffer
	t2, err := Figure2(cfg)
	if err != nil {
		t.Fatal(err)
	}
	WriteTimingRows(&buf, t2)
	if !strings.Contains(buf.String(), "K-dash(5)") {
		t.Error("timing table missing K-dash rows")
	}
	buf.Reset()
	WritePruningRows(&buf, []PruningRow{{Dataset: "X", Speedup: 2}})
	if !strings.Contains(buf.String(), "2.0x") {
		t.Errorf("pruning table formatting: %q", buf.String())
	}
	buf.Reset()
	WriteRootRows(&buf, []RootRow{{Dataset: "X", QueryRooted: 3, RandomRooted: 9}})
	if !strings.Contains(buf.String(), "9.0") {
		t.Error("root table formatting")
	}
	buf.Reset()
	WriteCaseStudyRows(&buf, []CaseStudyRow{{Term: "Linux", Method: "K-dash", Top: []string{"Linux", "Unix"}}})
	if !strings.Contains(buf.String(), "Linux | Unix") {
		t.Errorf("case-study formatting: %q", buf.String())
	}
	buf.Reset()
	WriteSweepRows(&buf, []SweepRow{{Param: 10}})
	WriteReorderRows(&buf, []ReorderRow{{Dataset: "X", Method: "Hybrid"}})
	WriteCSweepRows(&buf, []CSweepRow{{C: 0.95, Exact: true}})
	WriteAblationRows(&buf, []AblationRow{{DropTol: 1e-4, NNZ: 10, Precision: 0.9}})
	if buf.Len() == 0 {
		t.Error("formatters produced no output")
	}
}
