// Package experiments regenerates every measurement in the paper's
// evaluation (Section 6): Figures 2–7 and 9 and the Table 2 case study,
// plus two extensions the paper mentions in passing (a restart-probability
// sweep and a drop-tolerance ablation). Each experiment returns typed rows
// and has a formatter, so both the benchmark harness and cmd/kdash-bench
// share one implementation. K-dash runs as the one-shard ShardedIndex
// the CLI and server serve (build).
package experiments

import (
	"fmt"
	"io"
	"math/rand"
	"sort"
	"strings"
	"time"

	"kdash/internal/blin"
	"kdash/internal/bpa"
	"kdash/internal/core"
	"kdash/internal/dataset"
	"kdash/internal/graph"
	"kdash/internal/lu"
	"kdash/internal/reorder"
	"kdash/internal/rwr"
	"kdash/internal/shard"
	"kdash/internal/topk"
)

// Config controls workload sizes. The zero value selects the defaults
// used by cmd/kdash-bench, which are scaled-down versions of the paper's
// parameters (see docs/ARCHITECTURE.md).
type Config struct {
	// Queries is the number of query nodes averaged per measurement.
	Queries int
	// Seed drives query selection and index construction.
	Seed int64
	// Datasets overrides the evaluation datasets (default: the five
	// simulated paper datasets).
	Datasets []*dataset.Dataset
	// Ks are the answer-set sizes for Figure 2 (paper: 5, 25, 50).
	Ks []int
	// Ranks is the NB_LIN target-rank sweep for Figures 3–4
	// (paper: 100..1000 at full scale; scaled to 10..100 here).
	Ranks []int
	// Hubs is the BPA hub-count sweep for Figures 3–4.
	Hubs []int
	// K is the answer-set size for precision experiments (paper: 5).
	K int
}

func (c Config) withDefaults() Config {
	if c.Queries == 0 {
		c.Queries = 10
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Datasets == nil {
		c.Datasets = dataset.All()
	}
	if c.Ks == nil {
		c.Ks = []int{5, 25, 50}
	}
	if c.Ranks == nil {
		c.Ranks = []int{10, 40, 70, 100}
	}
	if c.Hubs == nil {
		c.Hubs = []int{10, 40, 70, 100}
	}
	if c.K == 0 {
		c.K = 5
	}
	return c
}

// build builds the index every K-dash experiment queries: one shard, so
// the whole graph is one block of m-ordered factors, under restart
// probability c (zero: the paper's 0.95).
func build(g *graph.Graph, c float64, m reorder.Method, seed int64) (*shard.ShardedIndex, error) {
	return shard.Build(g, shard.Options{Shards: 1, Restart: c, Reorder: m, Seed: seed})
}

// queryNodes picks deterministic query nodes for a dataset.
func (c Config) queryNodes(n int) []int {
	rng := rand.New(rand.NewSource(c.Seed))
	qs := make([]int, c.Queries)
	for i := range qs {
		qs[i] = rng.Intn(n)
	}
	return qs
}

// Precision is the paper's accuracy metric (Section 6.2): the fraction of
// an algorithm's top-k that appears in the exact top-k. Ties at the k-th
// exact score are treated as correct, since any of the tied nodes is a
// valid exact answer.
func Precision(got, exact []topk.Result) float64 {
	if len(exact) == 0 {
		return 1
	}
	okNode := map[int]bool{}
	for _, r := range exact {
		okNode[r.Node] = true
	}
	kth := exact[len(exact)-1].Score
	hits := 0
	limit := len(exact)
	if len(got) < limit {
		limit = len(got)
	}
	for _, r := range got[:limit] {
		if okNode[r.Node] || r.Score >= kth-1e-12 {
			hits++
		}
	}
	return float64(hits) / float64(len(exact))
}

// ---------------------------------------------------------------------
// Figure 2: query efficiency of K-dash vs NB_LIN vs BPA on all datasets.
// ---------------------------------------------------------------------

// TimingRow is one bar of Figure 2.
type TimingRow struct {
	Dataset string
	Algo    string
	Mean    time.Duration
}

// Figure2 measures mean top-k query time per dataset for K-dash(K in
// cfg.Ks), NB_LIN at a low and a high rank, and BPA(K in cfg.Ks).
func Figure2(cfg Config) ([]TimingRow, error) {
	cfg = cfg.withDefaults()
	var rows []TimingRow
	loRank, hiRank := cfg.Ranks[0], cfg.Ranks[len(cfg.Ranks)-1]
	hubCount := cfg.Hubs[len(cfg.Hubs)-1]
	for _, ds := range cfg.Datasets {
		qs := cfg.queryNodes(ds.Graph.N())
		ix, err := build(ds.Graph, 0, reorder.Hybrid, cfg.Seed)
		if err != nil {
			return nil, fmt.Errorf("figure2 %s: %w", ds.Name, err)
		}
		for _, k := range cfg.Ks {
			d, err := meanTime(qs, func(q int) error {
				_, _, err := ix.TopK(q, k)
				return err
			})
			if err != nil {
				return nil, fmt.Errorf("figure2 %s K-dash(%d): %w", ds.Name, k, err)
			}
			rows = append(rows, TimingRow{ds.Name, fmt.Sprintf("K-dash(%d)", k), d})
		}
		for _, rank := range []int{loRank, hiRank} {
			nb, err := blin.NewNBLin(ds.Graph, blin.Options{Rank: rank, Seed: cfg.Seed})
			if err != nil {
				return nil, fmt.Errorf("figure2 %s NB_LIN(%d): %w", ds.Name, rank, err)
			}
			d, err := meanTime(qs, func(q int) error {
				_, err := nb.TopK(q, cfg.K)
				return err
			})
			if err != nil {
				return nil, err
			}
			rows = append(rows, TimingRow{ds.Name, fmt.Sprintf("NB_LIN(%d)", rank), d})
		}
		bl, err := blin.NewBLin(ds.Graph, blin.Options{Rank: loRank, Seed: cfg.Seed})
		if err != nil {
			return nil, fmt.Errorf("figure2 %s B_LIN(%d): %w", ds.Name, loRank, err)
		}
		dBl, err := meanTime(qs, func(q int) error {
			_, err := bl.TopK(q, cfg.K)
			return err
		})
		if err != nil {
			return nil, err
		}
		rows = append(rows, TimingRow{ds.Name, fmt.Sprintf("B_LIN(%d)", loRank), dBl})
		bp, err := bpa.New(ds.Graph, bpa.Options{Hubs: hubCount})
		if err != nil {
			return nil, fmt.Errorf("figure2 %s BPA: %w", ds.Name, err)
		}
		for _, k := range cfg.Ks {
			d, err := meanTime(qs, func(q int) error {
				_, _, err := bp.TopK(q, k)
				return err
			})
			if err != nil {
				return nil, err
			}
			rows = append(rows, TimingRow{ds.Name, fmt.Sprintf("BPA(%d)", k), d})
		}
	}
	return rows, nil
}

func meanTime(qs []int, fn func(q int) error) (time.Duration, error) {
	start := time.Now()
	for _, q := range qs {
		if err := fn(q); err != nil {
			return 0, err
		}
	}
	return time.Since(start) / time.Duration(len(qs)), nil
}

// ---------------------------------------------------------------------
// Figures 3 and 4: precision and query time vs. target rank / hub count
// on the Dictionary dataset.
// ---------------------------------------------------------------------

// SweepRow is one x-position of Figures 3 and 4.
type SweepRow struct {
	Param          int // target rank (NB_LIN) / hub count (BPA)
	PrecisionNBLin float64
	PrecisionBPA   float64
	PrecisionKDash float64
	TimeNBLin      time.Duration
	TimeBPA        time.Duration
	TimeKDash      time.Duration
}

// Figure3and4 runs the rank/hub sweep on the first configured dataset
// (Dictionary by default), producing both the precision series (Figure 3)
// and the wall-clock series (Figure 4) in one pass.
func Figure3and4(cfg Config) ([]SweepRow, error) {
	cfg = cfg.withDefaults()
	ds := cfg.Datasets[0]
	qs := cfg.queryNodes(ds.Graph.N())
	a := ds.Graph.ColumnNormalized()
	// Exact answers once per query.
	exact := make(map[int][]topk.Result, len(qs))
	for _, q := range qs {
		rs, err := rwr.TopK(a, q, cfg.K, rwr.DefaultRestart)
		if err != nil {
			return nil, fmt.Errorf("figure3 oracle q=%d: %w", q, err)
		}
		exact[q] = rs
	}
	ix, err := build(ds.Graph, 0, reorder.Hybrid, cfg.Seed)
	if err != nil {
		return nil, err
	}
	kdashPrec := 0.0
	kdashTime, err := meanTime(qs, func(q int) error {
		rs, _, err := ix.TopK(q, cfg.K)
		if err != nil {
			return err
		}
		kdashPrec += Precision(rs, exact[q])
		return nil
	})
	if err != nil {
		return nil, err
	}
	kdashPrec /= float64(len(qs))

	if len(cfg.Ranks) != len(cfg.Hubs) {
		return nil, fmt.Errorf("figure3: Ranks and Hubs sweeps must have equal length (%d vs %d)", len(cfg.Ranks), len(cfg.Hubs))
	}
	var rows []SweepRow
	for i := range cfg.Ranks {
		rank, hubs := cfg.Ranks[i], cfg.Hubs[i]
		nb, err := blin.NewNBLin(ds.Graph, blin.Options{Rank: rank, Seed: cfg.Seed})
		if err != nil {
			return nil, err
		}
		nbPrec := 0.0
		nbTime, err := meanTime(qs, func(q int) error {
			rs, err := nb.TopK(q, cfg.K)
			if err != nil {
				return err
			}
			nbPrec += Precision(rs, exact[q])
			return nil
		})
		if err != nil {
			return nil, err
		}
		bp, err := bpa.New(ds.Graph, bpa.Options{Hubs: hubs})
		if err != nil {
			return nil, err
		}
		bpPrec := 0.0
		bpTime, err := meanTime(qs, func(q int) error {
			rs, _, err := bp.TopK(q, cfg.K)
			if err != nil {
				return err
			}
			if len(rs) > cfg.K {
				rs = rs[:cfg.K]
			}
			bpPrec += Precision(rs, exact[q])
			return nil
		})
		if err != nil {
			return nil, err
		}
		rows = append(rows, SweepRow{
			Param:          rank,
			PrecisionNBLin: nbPrec / float64(len(qs)),
			PrecisionBPA:   bpPrec / float64(len(qs)),
			PrecisionKDash: kdashPrec,
			TimeNBLin:      nbTime,
			TimeBPA:        bpTime,
			TimeKDash:      kdashTime,
		})
	}
	return rows, nil
}

// ---------------------------------------------------------------------
// Figures 5 and 6: inverse-factor sparsity and precomputation time per
// reordering method.
// ---------------------------------------------------------------------

// ReorderRow is one bar of Figures 5 and 6.
type ReorderRow struct {
	Dataset    string
	Method     string
	NNZ        int
	Ratio      float64       // nnz(L^-1)+nnz(U^-1) over m — Figure 5's y-axis
	Precompute time.Duration // Figure 6's y-axis
}

// Figure5and6 builds an index with every reordering method on every
// dataset, recording the Figure 5 sparsity ratio and the Figure 6
// precompute time from the same build.
func Figure5and6(cfg Config) ([]ReorderRow, error) {
	cfg = cfg.withDefaults()
	var rows []ReorderRow
	for _, ds := range cfg.Datasets {
		for _, m := range reorder.Methods {
			sx, err := build(ds.Graph, 0, m, cfg.Seed)
			if err != nil {
				return nil, fmt.Errorf("figure5 %s/%v: %w", ds.Name, m, err)
			}
			st, err := sx.PartStats(0)
			if err != nil {
				return nil, err
			}
			rows = append(rows, ReorderRow{
				Dataset:    ds.Name,
				Method:     m.String(),
				NNZ:        st.NNZInverse,
				Ratio:      st.InverseRatio,
				Precompute: st.TotalTime,
			})
		}
	}
	return rows, nil
}

// ---------------------------------------------------------------------
// Figure 7: effect of the tree-estimation pruning.
// ---------------------------------------------------------------------

// PruningRow is one dataset of Figure 7.
type PruningRow struct {
	Dataset        string
	With           time.Duration
	Without        time.Duration
	Speedup        float64
	PrunedFraction float64 // fraction of reachable nodes never scored
}

// Figure7 measures query time with and without the estimation-based
// pruning (same index, K = cfg.K).
func Figure7(cfg Config) ([]PruningRow, error) {
	cfg = cfg.withDefaults()
	var rows []PruningRow
	for _, ds := range cfg.Datasets {
		qs := cfg.queryNodes(ds.Graph.N())
		ix, err := build(ds.Graph, 0, reorder.Hybrid, cfg.Seed)
		if err != nil {
			return nil, fmt.Errorf("figure7 %s: %w", ds.Name, err)
		}
		var withComps, withoutComps int
		with, err := meanTime(qs, func(q int) error {
			_, st, err := ix.Search(q, core.SearchOptions{K: cfg.K})
			withComps += st.ProximityComputations
			return err
		})
		if err != nil {
			return nil, err
		}
		without, err := meanTime(qs, func(q int) error {
			_, st, err := ix.Search(q, core.SearchOptions{K: cfg.K, DisablePruning: true})
			withoutComps += st.ProximityComputations
			return err
		})
		if err != nil {
			return nil, err
		}
		row := PruningRow{Dataset: ds.Name, With: with, Without: without}
		if with > 0 {
			row.Speedup = float64(without) / float64(with)
		}
		if withoutComps > 0 {
			row.PrunedFraction = 1 - float64(withComps)/float64(withoutComps)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// ---------------------------------------------------------------------
// Figure 9: root-node selection.
// ---------------------------------------------------------------------

// RootRow is one dataset of Figure 9.
type RootRow struct {
	Dataset      string
	QueryRooted  float64 // mean proximity computations, tree rooted at q
	RandomRooted float64 // mean proximity computations, random root
}

// Figure9 compares the number of exact proximity computations between the
// query-rooted search tree and a randomly rooted one.
func Figure9(cfg Config) ([]RootRow, error) {
	cfg = cfg.withDefaults()
	var rows []RootRow
	for _, ds := range cfg.Datasets {
		qs := cfg.queryNodes(ds.Graph.N())
		ix, err := build(ds.Graph, 0, reorder.Hybrid, cfg.Seed)
		if err != nil {
			return nil, fmt.Errorf("figure9 %s: %w", ds.Name, err)
		}
		var qSum, rSum float64
		for i, q := range qs {
			_, st, err := ix.Search(q, core.SearchOptions{K: cfg.K})
			if err != nil {
				return nil, err
			}
			qSum += float64(st.ProximityComputations)
			_, st, err = ix.Search(q, core.SearchOptions{K: cfg.K, RandomRoot: true, RootSeed: cfg.Seed + int64(i)})
			if err != nil {
				return nil, err
			}
			rSum += float64(st.ProximityComputations)
		}
		rows = append(rows, RootRow{
			Dataset:      ds.Name,
			QueryRooted:  qSum / float64(len(qs)),
			RandomRooted: rSum / float64(len(qs)),
		})
	}
	return rows, nil
}

// ---------------------------------------------------------------------
// Table 2: case study on the Dictionary dataset.
// ---------------------------------------------------------------------

// CaseStudyRow is one (term, method) line of Table 2.
type CaseStudyRow struct {
	Term   string
	Method string
	Top    []string
}

// Table2 reproduces the ranked-list case study: the top-5 terms for each
// company / operating-system query, by exact K-dash and by low-rank
// NB_LIN.
func Table2(cfg Config) ([]CaseStudyRow, error) {
	cfg = cfg.withDefaults()
	ds := dataset.Dictionary()
	ix, err := build(ds.Graph, 0, reorder.Hybrid, cfg.Seed)
	if err != nil {
		return nil, err
	}
	nb, err := blin.NewNBLin(ds.Graph, blin.Options{Rank: cfg.Ranks[0], Seed: cfg.Seed})
	if err != nil {
		return nil, err
	}
	var rows []CaseStudyRow
	for _, term := range dataset.CaseStudyTerms() {
		q, err := ds.NodeByLabel(term)
		if err != nil {
			return nil, err
		}
		kd, _, err := ix.TopK(q, cfg.K)
		if err != nil {
			return nil, err
		}
		nbRes, err := nb.TopK(q, cfg.K)
		if err != nil {
			return nil, err
		}
		rows = append(rows,
			CaseStudyRow{term, "K-dash", labelsOf(ds, kd)},
			CaseStudyRow{term, fmt.Sprintf("NB_LIN(%d)", cfg.Ranks[0]), labelsOf(ds, nbRes)},
		)
	}
	return rows, nil
}

func labelsOf(ds *dataset.Dataset, rs []topk.Result) []string {
	out := make([]string, len(rs))
	for i, r := range rs {
		out[i] = ds.Label(r.Node)
	}
	return out
}

// ---------------------------------------------------------------------
// Extensions: restart-probability sweep (Section 6.3.3) and the
// drop-tolerance ablation (exactness/sparsity trade-off).
// ---------------------------------------------------------------------

// CSweepRow is one restart probability of the sweep.
type CSweepRow struct {
	C         float64
	Exact     bool
	QueryTime time.Duration
}

// CSweep verifies exactness and measures query time across restart
// probabilities on the first configured dataset.
func CSweep(cfg Config) ([]CSweepRow, error) {
	cfg = cfg.withDefaults()
	ds := cfg.Datasets[0]
	qs := cfg.queryNodes(ds.Graph.N())
	a := ds.Graph.ColumnNormalized()
	var rows []CSweepRow
	for _, c := range []float64{0.5, 0.7, 0.9, 0.95, 0.99} {
		ix, err := build(ds.Graph, c, reorder.Hybrid, cfg.Seed)
		if err != nil {
			return nil, err
		}
		exact := true
		d, err := meanTime(qs, func(q int) error {
			got, _, err := ix.TopK(q, cfg.K)
			if err != nil {
				return err
			}
			want, err := rwr.TopK(a, q, cfg.K, c)
			if err != nil {
				return err
			}
			if Precision(got, want) < 1 {
				exact = false
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		rows = append(rows, CSweepRow{C: c, Exact: exact, QueryTime: d})
	}
	return rows, nil
}

// AblationRow is one drop tolerance of the ablation.
type AblationRow struct {
	DropTol   float64
	NNZ       int
	Precision float64
}

// DropTolAblation quantifies how discarding small inverse-factor entries
// trades exactness for sparsity — the reason K-dash keeps every entry.
// Dropped entries void the bounds pruning rests on, so it ranks every
// node of one whole-graph block by scan (scanTopK).
func DropTolAblation(cfg Config) ([]AblationRow, error) {
	cfg = cfg.withDefaults()
	ds := cfg.Datasets[0]
	qs := cfg.queryNodes(ds.Graph.N())
	a := ds.Graph.ColumnNormalized()
	exact := make(map[int][]topk.Result, len(qs))
	for _, q := range qs {
		rs, err := rwr.TopK(a, q, cfg.K, rwr.DefaultRestart)
		if err != nil {
			return nil, err
		}
		exact[q] = rs
	}
	var rows []AblationRow
	for _, tol := range []float64{0, 1e-10, 1e-7, 1e-4, 1e-2} {
		opt := core.BuildOptions{Reorder: reorder.Hybrid, Seed: cfg.Seed, DropTol: tol}
		ix, _, err := core.BuildBlock(ds.Graph, opt, reorder.Block{Owned: ds.Graph.N()}, nil, nil)
		if err != nil {
			return nil, err
		}
		w := ix.NewWorkspace()
		prec := 0.0
		for _, q := range qs {
			got, err := scanTopK(ix, w, q, cfg.K)
			if err != nil {
				return nil, err
			}
			prec += Precision(got, exact[q])
		}
		rows = append(rows, AblationRow{
			DropTol:   tol,
			NNZ:       ix.Stats().NNZInverse,
			Precision: prec / float64(len(qs)),
		})
	}
	return rows, nil
}

// scanTopK ranks every node of ix by its proximity to q through the
// split solve — one L^{-1} pass into w, then c times one U^{-1} row dot
// per node — and returns the k largest positive ones, leaving w clean.
func scanTopK(ix *core.Index, w *lu.Workspace, q, k int) ([]topk.Result, error) {
	if err := ix.SolveLower([]int{q}, []float64{1}, w); err != nil {
		return nil, err
	}
	heap := topk.New(k)
	for u := 0; u < ix.N(); u++ {
		if p := ix.Restart() * ix.UpperDot(u, w); p > 0 {
			heap.Push(u, p)
		}
	}
	w.Reset()
	return heap.Results(), nil
}

// ---------------------------------------------------------------------
// Formatting.
// ---------------------------------------------------------------------

// WriteTimingRows prints Figure 2 style rows grouped by dataset.
func WriteTimingRows(w io.Writer, rows []TimingRow) {
	fmt.Fprintf(w, "%-12s %-14s %14s\n", "dataset", "algorithm", "mean query")
	for _, r := range rows {
		fmt.Fprintf(w, "%-12s %-14s %14v\n", r.Dataset, r.Algo, r.Mean)
	}
}

// WriteSweepRows prints Figures 3 and 4 as one table.
func WriteSweepRows(w io.Writer, rows []SweepRow) {
	fmt.Fprintf(w, "%-6s %10s %10s %10s %14s %14s %14s\n",
		"param", "prec(NB)", "prec(BPA)", "prec(KD)", "time(NB)", "time(BPA)", "time(KD)")
	for _, r := range rows {
		fmt.Fprintf(w, "%-6d %10.3f %10.3f %10.3f %14v %14v %14v\n",
			r.Param, r.PrecisionNBLin, r.PrecisionBPA, r.PrecisionKDash,
			r.TimeNBLin, r.TimeBPA, r.TimeKDash)
	}
}

// WriteReorderRows prints Figures 5 and 6 as one table.
func WriteReorderRows(w io.Writer, rows []ReorderRow) {
	fmt.Fprintf(w, "%-12s %-8s %12s %10s %14s\n", "dataset", "method", "nnz(inv)", "nnz/m", "precompute")
	for _, r := range rows {
		fmt.Fprintf(w, "%-12s %-8s %12d %10.2f %14v\n", r.Dataset, r.Method, r.NNZ, r.Ratio, r.Precompute)
	}
}

// WritePruningRows prints Figure 7.
func WritePruningRows(w io.Writer, rows []PruningRow) {
	fmt.Fprintf(w, "%-12s %14s %14s %9s %8s\n", "dataset", "with pruning", "without", "speedup", "pruned")
	for _, r := range rows {
		fmt.Fprintf(w, "%-12s %14v %14v %8.1fx %7.1f%%\n",
			r.Dataset, r.With, r.Without, r.Speedup, 100*r.PrunedFraction)
	}
}

// WriteRootRows prints Figure 9.
func WriteRootRows(w io.Writer, rows []RootRow) {
	fmt.Fprintf(w, "%-12s %18s %18s\n", "dataset", "query-rooted", "random-rooted")
	for _, r := range rows {
		fmt.Fprintf(w, "%-12s %18.1f %18.1f\n", r.Dataset, r.QueryRooted, r.RandomRooted)
	}
}

// WriteCaseStudyRows prints Table 2.
func WriteCaseStudyRows(w io.Writer, rows []CaseStudyRow) {
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].Term < rows[j].Term })
	for _, r := range rows {
		fmt.Fprintf(w, "%-18s %-12s %s\n", r.Term, r.Method, strings.Join(r.Top, " | "))
	}
}

// WriteCSweepRows prints the restart-probability sweep.
func WriteCSweepRows(w io.Writer, rows []CSweepRow) {
	fmt.Fprintf(w, "%-6s %-7s %14s\n", "c", "exact", "query time")
	for _, r := range rows {
		fmt.Fprintf(w, "%-6.2f %-7t %14v\n", r.C, r.Exact, r.QueryTime)
	}
}

// WriteAblationRows prints the drop-tolerance ablation.
func WriteAblationRows(w io.Writer, rows []AblationRow) {
	fmt.Fprintf(w, "%-10s %12s %10s\n", "droptol", "nnz(inv)", "precision")
	for _, r := range rows {
		fmt.Fprintf(w, "%-10.0e %12d %10.3f\n", r.DropTol, r.NNZ, r.Precision)
	}
}
