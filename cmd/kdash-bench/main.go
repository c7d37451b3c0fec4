// Command kdash-bench regenerates the paper's evaluation: every figure
// (2-7, 9) and the Table 2 case study, plus the restart-probability sweep
// and drop-tolerance ablation extensions. Serving benchmarks are not
// here: `bash bench/bench.sh` measures the server (see bench/README.md).
//
// Usage:
//
//	kdash-bench -exp all            # everything (minutes)
//	kdash-bench -exp fig2           # one experiment
//	kdash-bench -exp fig7,fig9 -queries 3
//	kdash-bench -exp fig2 -json     # also write BENCH_fig2.json
//	kdash-bench -exp fig2 -cpuprofile cpu.out     # pprof the run
//
// Output is printed as plain tables. With -json, each experiment
// additionally writes machine-readable rows to BENCH_<exp>.json.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"

	"kdash/internal/experiments"
)

// experimentNames is every name -exp accepts; fig3/fig4 and fig5/fig6
// each name one shared pass.
var experimentNames = []string{"fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig9", "table2", "csweep", "ablation", "all"}

// parseExperiments splits a comma-separated -exp value, rejecting the
// whole list at the first unknown name so nothing runs.
func parseExperiments(s string) (map[string]bool, error) {
	want := map[string]bool{}
	for _, name := range strings.Split(s, ",") {
		if !slices.Contains(experimentNames, name) {
			return nil, fmt.Errorf("unknown experiment %q (want %s); serving benchmarks live in bench/: bash bench/bench.sh",
				name, strings.Join(experimentNames, "|"))
		}
		want[name] = true
	}
	return want, nil
}

func main() {
	var (
		exp        = flag.String("exp", "all", "experiments, comma-separated: "+strings.Join(experimentNames, "|"))
		queries    = flag.Int("queries", 10, "query nodes averaged per measurement")
		seed       = flag.Int64("seed", 1, "workload seed")
		jsonOut    = flag.Bool("json", false, "also write each experiment's rows to BENCH_<exp>.json")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile of the experiment run to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile (post-run) to this file")
	)
	flag.Parse()
	want, err := parseExperiments(*exp)
	if err != nil {
		fmt.Fprintln(os.Stderr, "kdash-bench:", err)
		os.Exit(2)
	}
	run := func(name string) bool { return want["all"] || want[name] }
	cfg := experiments.Config{Queries: *queries, Seed: *seed}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		check(err)
		check(pprof.StartCPUProfile(f))
		// Every exit path (check -> os.Exit, normal return) runs through
		// stopProfile, so the profile is always flushed and readable — a
		// defer would be skipped by os.Exit.
		stopProfile = func() {
			pprof.StopCPUProfile()
			f.Close()
			stopProfile = func() {}
		}
		defer stopProfile()
	}
	// emit writes one experiment's machine-readable rows when -json is on;
	// the config block makes every file self-describing.
	emit := func(name string, rows interface{}) {
		if !*jsonOut {
			return
		}
		path := fmt.Sprintf("BENCH_%s.json", name)
		doc := map[string]interface{}{
			"experiment": name,
			"config": map[string]interface{}{
				"queries": cfg.Queries,
				"seed":    cfg.Seed,
			},
			"rows": rows,
		}
		data, err := json.MarshalIndent(doc, "", "  ")
		check(err)
		check(os.WriteFile(path, append(data, '\n'), 0o644))
		fmt.Printf("wrote %s\n", path)
	}
	// Figures 3/4 and 5/6 share a computation; emit both tables from one
	// pass when either is requested.
	if run("fig2") {
		section("Figure 2 — top-k search efficiency (wall clock per query)")
		rows, err := experiments.Figure2(cfg)
		check(err)
		experiments.WriteTimingRows(os.Stdout, rows)
		emit("fig2", rows)
	}
	if run("fig3") || run("fig4") {
		section("Figures 3 & 4 — precision and query time vs target rank / hub count (Dictionary)")
		rows, err := experiments.Figure3and4(cfg)
		check(err)
		experiments.WriteSweepRows(os.Stdout, rows)
		emit("fig3and4", rows)
	}
	if run("fig5") || run("fig6") {
		section("Figures 5 & 6 — inverse-factor sparsity and precompute time per reordering")
		rows, err := experiments.Figure5and6(cfg)
		check(err)
		experiments.WriteReorderRows(os.Stdout, rows)
		emit("fig5and6", rows)
	}
	if run("fig7") {
		section("Figure 7 — effect of tree-estimation pruning")
		rows, err := experiments.Figure7(cfg)
		check(err)
		experiments.WritePruningRows(os.Stdout, rows)
		emit("fig7", rows)
	}
	if run("fig9") {
		section("Figure 9 — root-node selection (mean proximity computations)")
		rows, err := experiments.Figure9(cfg)
		check(err)
		experiments.WriteRootRows(os.Stdout, rows)
		emit("fig9", rows)
	}
	if run("table2") {
		section("Table 2 — case study: top-5 terms (Dictionary)")
		rows, err := experiments.Table2(cfg)
		check(err)
		experiments.WriteCaseStudyRows(os.Stdout, rows)
		emit("table2", rows)
	}
	if run("csweep") {
		section("Extension — restart probability sweep (exactness & query time)")
		rows, err := experiments.CSweep(cfg)
		check(err)
		experiments.WriteCSweepRows(os.Stdout, rows)
		emit("csweep", rows)
	}
	if run("ablation") {
		section("Extension — drop-tolerance ablation (sparsity vs exactness)")
		rows, err := experiments.DropTolAblation(cfg)
		check(err)
		experiments.WriteAblationRows(os.Stdout, rows)
		emit("ablation", rows)
	}
	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		check(err)
		runtime.GC() // settle live heap before the snapshot
		check(pprof.WriteHeapProfile(f))
		check(f.Close())
	}
}

func section(title string) {
	fmt.Printf("\n== %s ==\n", title)
}

// stopProfile flushes an in-progress CPU profile; main swaps in the real
// implementation when -cpuprofile is set.
var stopProfile = func() {}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "kdash-bench:", err)
		stopProfile()
		os.Exit(1)
	}
}
