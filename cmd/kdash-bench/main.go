// Command kdash-bench regenerates the paper's evaluation: every figure
// (2-7, 9) and the Table 2 case study, plus the restart-probability sweep
// and drop-tolerance ablation extensions.
//
// Usage:
//
//	kdash-bench -exp all            # everything (minutes)
//	kdash-bench -exp fig2           # one experiment
//	kdash-bench -exp fig5 -queries 5
//	kdash-bench -exp shards -shards 1,4,8 -shard-nodes 50000
//	kdash-bench -exp updates -shard-nodes 50000   # update latency vs rebuild
//	kdash-bench -exp distributed                  # coordinator/worker loopback serving vs single process
//	kdash-bench -exp shards -json                 # also write BENCH_shards.json
//	kdash-bench -exp fig2 -cpuprofile cpu.out     # pprof the run
//
// Output is printed as plain tables. With -json, each experiment
// additionally writes machine-readable rows to BENCH_<exp>.json so the
// perf trajectory can be tracked across commits (CI uploads these as
// artifacts).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"

	"kdash/internal/experiments"
)

func main() {
	var (
		exp        = flag.String("exp", "all", "experiment: fig2|fig3|fig4|fig5|fig6|fig7|fig9|table2|csweep|ablation|shards|updates|serve|distributed|all")
		queries    = flag.Int("queries", 10, "query nodes averaged per measurement")
		seed       = flag.Int64("seed", 1, "workload seed")
		shards     = flag.String("shards", "1,2,4,8", "shard counts for -exp shards")
		shardNodes = flag.Int("shard-nodes", 0, "graph size for the sharded-index experiments (0 = default 50000)")
		serveDur   = flag.Duration("serve-duration", 0, "per-phase wall clock for -exp serve (0 = default 4s)")
		serveWk    = flag.Int("serve-workers", 0, "client concurrency for -exp serve (0 = default 8)")
		jsonOut    = flag.Bool("json", false, "also write each experiment's rows to BENCH_<exp>.json")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile of the experiment run to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile (post-run) to this file")
	)
	flag.Parse()
	shardCounts, err := parseInts(*shards)
	check(err)
	cfg := experiments.Config{
		Queries: *queries, Seed: *seed, ShardCounts: shardCounts, ShardGraphN: *shardNodes,
		ServeDuration: *serveDur, ServeWorkers: *serveWk,
	}
	want := strings.Split(*exp, ",")
	run := func(name string) bool {
		for _, w := range want {
			if w == "all" || w == name {
				return true
			}
		}
		return false
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		check(err)
		check(pprof.StartCPUProfile(f))
		// Every exit path (check -> os.Exit, unknown -exp, normal return)
		// runs through stopProfile, so the profile is always flushed and
		// readable — a defer would be skipped by os.Exit.
		stopProfile = func() {
			pprof.StopCPUProfile()
			f.Close()
			stopProfile = func() {}
		}
		defer stopProfile()
	}
	// emit writes one experiment's machine-readable rows when -json is on.
	// The config block makes every file self-describing, so a committed
	// reference run clobbered by a smaller local/CI run is visible at a
	// glance (and in review). It records the *resolved* configuration —
	// the values the experiment actually ran with after defaulting — not
	// the raw flags, so a default run no longer serialises the zero
	// sentinels ("shardNodes": 0, "serveWorkers": 0).
	emit := func(name string, rows interface{}) {
		if !*jsonOut {
			return
		}
		rcfg := cfg.Resolved()
		path := fmt.Sprintf("BENCH_%s.json", name)
		doc := map[string]interface{}{
			"experiment": name,
			"config": map[string]interface{}{
				"queries":       rcfg.Queries,
				"seed":          rcfg.Seed,
				"shards":        rcfg.ShardCounts,
				"shardNodes":    rcfg.ShardGraphN,
				"serveDuration": rcfg.ServeDuration.String(),
				"serveWorkers":  rcfg.ServeWorkers,
			},
			"rows": rows,
		}
		data, err := json.MarshalIndent(doc, "", "  ")
		check(err)
		check(os.WriteFile(path, append(data, '\n'), 0o644))
		fmt.Printf("wrote %s\n", path)
	}
	any := false
	// Figures 3/4 and 5/6 share a computation; emit both tables from one
	// pass when either is requested.
	if run("fig2") {
		any = true
		section("Figure 2 — top-k search efficiency (wall clock per query)")
		rows, err := experiments.Figure2(cfg)
		check(err)
		experiments.WriteTimingRows(os.Stdout, rows)
		emit("fig2", rows)
	}
	if run("fig3") || run("fig4") {
		any = true
		section("Figures 3 & 4 — precision and query time vs target rank / hub count (Dictionary)")
		rows, err := experiments.Figure3and4(cfg)
		check(err)
		experiments.WriteSweepRows(os.Stdout, rows)
		emit("fig3and4", rows)
	}
	if run("fig5") || run("fig6") {
		any = true
		section("Figures 5 & 6 — inverse-factor sparsity and precompute time per reordering")
		rows, err := experiments.Figure5and6(cfg)
		check(err)
		experiments.WriteReorderRows(os.Stdout, rows)
		emit("fig5and6", rows)
	}
	if run("fig7") {
		any = true
		section("Figure 7 — effect of tree-estimation pruning")
		rows, err := experiments.Figure7(cfg)
		check(err)
		experiments.WritePruningRows(os.Stdout, rows)
		emit("fig7", rows)
	}
	if run("fig9") {
		any = true
		section("Figure 9 — root-node selection (mean proximity computations)")
		rows, err := experiments.Figure9(cfg)
		check(err)
		experiments.WriteRootRows(os.Stdout, rows)
		emit("fig9", rows)
	}
	if run("table2") {
		any = true
		section("Table 2 — case study: top-5 terms (Dictionary)")
		rows, err := experiments.Table2(cfg)
		check(err)
		experiments.WriteCaseStudyRows(os.Stdout, rows)
		emit("table2", rows)
	}
	if run("csweep") {
		any = true
		section("Extension — restart probability sweep (exactness & query time)")
		rows, err := experiments.CSweep(cfg)
		check(err)
		experiments.WriteCSweepRows(os.Stdout, rows)
		emit("csweep", rows)
	}
	if run("ablation") {
		any = true
		section("Extension — drop-tolerance ablation (sparsity vs exactness)")
		rows, err := experiments.DropTolAblation(cfg)
		check(err)
		experiments.WriteAblationRows(os.Stdout, rows)
		emit("ablation", rows)
	}
	if run("shards") {
		any = true
		section("Extension — sharded index: partition-parallel build scaling & cross-shard exactness")
		rows, err := experiments.ShardScale(cfg)
		check(err)
		experiments.WriteShardRows(os.Stdout, rows)
		emit("shards", rows)
	}
	if run("updates") {
		any = true
		section("Extension — dynamic updates: incremental shard refactorization vs full rebuild")
		rows, err := experiments.UpdateScale(cfg)
		check(err)
		experiments.WriteUpdateRows(os.Stdout, rows)
		emit("updates", rows)
	}
	if run("serve") {
		any = true
		section("Extension — serve load: closed/open-loop mixed traffic against the HTTP server")
		rows, err := experiments.ServeLoad(cfg)
		check(err)
		experiments.WriteServeRows(os.Stdout, rows)
		emit("serve", rows)
	}
	if run("distributed") {
		any = true
		section("Extension — distributed serving: loopback coordinator/worker clusters vs single process")
		rows, err := experiments.Distributed(cfg)
		check(err)
		experiments.WriteDistributedRows(os.Stdout, rows)
		emit("distributed", rows)
	}
	if !any {
		fmt.Fprintf(os.Stderr, "kdash-bench: unknown experiment %q\n", *exp)
		flag.Usage()
		stopProfile()
		os.Exit(2)
	}
	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		check(err)
		runtime.GC() // settle live heap before the snapshot
		check(pprof.WriteHeapProfile(f))
		check(f.Close())
	}
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.Atoi(part)
		if err != nil || v < 1 {
			return nil, fmt.Errorf("bad count %q", part)
		}
		out = append(out, v)
	}
	return out, nil
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
