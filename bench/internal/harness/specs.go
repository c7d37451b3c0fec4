package harness

import (
	"fmt"

	"kdash/bench/internal/workload"
)

// Load model constants, frozen with BENCHMARK.json. Work is fixed-count:
// each workload replays Passes measured slices of a seeded request list
// after one unmeasured warm-up slice. PerPass counts are what fills
// RefSeconds of measured time on the reference box; -seconds scales them
// linearly, so one (seed, seconds) pair always replays the same list.
const (
	Passes     = 12
	RefSeconds = 12
	TopK       = 10 // k of every query
	OracleSize = 64 // queries re-issued against the iterative oracle
	Shards     = 8
)

// Spec is one workload: which processes run, with which flags, and the
// request list they are sent.
type Spec struct {
	Name string
	Why  string
	// PerPass is the number of queries in one pass at RefSeconds.
	PerPass int
	// UpdatesPerPass is how many POST /update are spread evenly through
	// a pass (even, so every pass ends on the original graph).
	UpdatesPerPass int
	// Cache is the server's -cache value (0 = no cache).
	Cache int
	// WAL starts the server with -wal-dir (fsync "interval", default
	// compaction tick).
	WAL bool
	// Workers is the number of kdash-worker processes behind a
	// -coordinator server (0 = single process).
	Workers int
	// Queries draws the request list.
	Queries func(n, count int, seed int64) []int
}

// Specs are the four workloads, in the order -all runs them.
var Specs = []Spec{
	{
		Name:    "topk_uniform",
		Why:     "uniform /topk, no cache, no updates: the engine is most of each request, so shard/lu/kernels gains show here",
		PerPass: 1500,
		Queries: workload.UniformQueries,
	},
	{
		Name:    "topk_hotset_cached",
		Why:     "-cache 256, 90% of queries from 128 hot nodes: hits bypass the engine, so server-tier gains show and engine gains must not move p50",
		PerPass: 3000,
		Cache:   workload.CacheEntries,
		Queries: workload.HotsetQueries,
	},
	{
		Name:           "update_stream_wal",
		Why:            "uniform /topk beside a POST /update every 500 queries on -wal-dir: WAL, compaction, Apply and the read barrier run while queries are timed",
		PerPass:        1000,
		UpdatesPerPass: 2,
		WAL:            true,
		Queries:        workload.UniformQueries,
	},
	{
		Name:    "cluster_topk",
		Why:     "coordinator + two workers on the topk_uniform list: rpc framing and placement fan-out dominate; its p50 over topk_uniform's is the cluster tax",
		PerPass: 750,
		Workers: 2,
		Queries: workload.UniformQueries,
	},
}

// SpecByName looks a workload up.
func SpecByName(name string) (Spec, error) {
	for _, s := range Specs {
		if s.Name == name {
			return s, nil
		}
	}
	return Spec{}, fmt.Errorf("unknown workload %q", name)
}

// Plan is a workload sized for one run.
type Plan struct {
	Spec
	Graph   workload.GraphSpec
	Passes  int
	PerPass int
	Seed    int64
	Seconds int
}

// NewPlan sizes a workload for a run of the given length; smoke selects
// the small graph with 2 passes of 200 queries.
func NewPlan(spec Spec, seed int64, seconds int, smoke bool) Plan {
	p := Plan{Spec: spec, Graph: workload.Reference, Passes: Passes, Seed: seed, Seconds: seconds}
	p.PerPass = spec.PerPass * seconds / RefSeconds
	if smoke {
		p.Graph, p.Passes, p.PerPass = workload.Smoke, 2, 200
	}
	return p
}

// Pass returns the queries of pass i; pass 0 is the warm-up.
func (p Plan) Pass(list []int, i int) []int { return list[i*p.PerPass : (i+1)*p.PerPass] }

// List draws the whole request list: warm-up plus measured passes.
func (p Plan) List() []int {
	return p.Queries(p.Graph.Nodes, (p.Passes+1)*p.PerPass, p.Seed)
}
