package server

// The reference for every answer body: the shapes /topk, /personalized
// and /topk/batch bodies had when encoding/json wrote them. The tests
// below encode these shapes with encoding/json and hold every body the
// handler writes to those bytes.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"kdash/internal/core"
	"kdash/internal/obs"
	"kdash/internal/shard"
	"kdash/internal/topk"
)

// refResult is one ranked answer on the wire.
type refResult struct {
	Node  int     `json:"node"`
	Score float64 `json:"score"`
}

// refStats is one query's work on the wire.
type refStats struct {
	Visited               int  `json:"visited"`
	ProximityComputations int  `json:"proximityComputations"`
	Terminated            bool `json:"terminated"`
}

// refTopK is the /topk and /personalized body, and one /topk/batch
// item.
type refTopK struct {
	K          int         `json:"k"`
	RequestedK int         `json:"requestedK"`
	Results    []refResult `json:"results"`
	Stats      refStats    `json:"stats"`
	Cached     bool        `json:"cached,omitempty"`
	Trace      *refTrace   `json:"trace,omitempty"`
}

// refTraceStep is one shard solve in a trace block.
type refTraceStep struct {
	Shard          int     `json:"shard"`
	ResidualBefore float64 `json:"residualBefore"`
	MassConsumed   float64 `json:"massConsumed"`
	NodesEvaluated int     `json:"nodesEvaluated"`
	DurationNS     int64   `json:"durationNs"`
	WorkerNS       int64   `json:"workerNs,omitempty"`
}

// refTrace is a ?trace=1 response's trace block.
type refTrace struct {
	Steps          []refTraceStep `json:"steps,omitempty"`
	Residual       []float64      `json:"residual,omitempty"`
	Solves         int            `json:"solves"`
	ShardsSolved   int            `json:"shardsSolved"`
	ShardsPruned   int            `json:"shardsPruned"`
	NodesEvaluated int            `json:"nodesEvaluated"`
	Calls          int            `json:"calls"`
	CutMassPruned  float64        `json:"cutMassPruned"`
	Converged      bool           `json:"converged"`
	CacheHit       bool           `json:"cacheHit"`
	SolveNS        int64          `json:"solveNs"`
	RankNS         int64          `json:"rankNs"`
	BarrierWaitNS  int64          `json:"barrierWaitNs"`
}

// refBatch is the /topk/batch body.
type refBatch struct {
	Count int       `json:"count"`
	Items []refTopK `json:"items"`
	Stats struct {
		Queries               int   `json:"queries"`
		Visited               int64 `json:"visited"`
		ProximityComputations int64 `json:"proximityComputations"`
		TerminatedEarly       int64 `json:"terminatedEarly"`
	} `json:"stats"`
}

// refAnswer is the reference shape of one answer set; k on the wire
// is the count returned.
func refAnswer(requestedK int, results []topk.Result, stats core.SearchStats, cached bool, tr *obs.QueryTrace) refTopK {
	resp := refTopK{
		K:          len(results),
		RequestedK: requestedK,
		Results:    make([]refResult, len(results)),
		Stats:      refStats{stats.Visited, stats.ProximityComputations, stats.Terminated},
		Cached:     cached,
	}
	for i, r := range results {
		resp.Results[i] = refResult{r.Node, r.Score}
	}
	if tr != nil {
		resp.Trace = &refTrace{
			Residual:       tr.Residual,
			Solves:         tr.Solves,
			ShardsSolved:   tr.ShardsSolved,
			ShardsPruned:   tr.ShardsPruned,
			NodesEvaluated: tr.NodesEvaluated,
			Calls:          tr.Calls,
			CutMassPruned:  tr.CutMassPruned,
			Converged:      tr.Converged,
			CacheHit:       tr.CacheHit,
			SolveNS:        tr.SolveNS,
			RankNS:         tr.RankNS,
			BarrierWaitNS:  tr.BarrierWaitNS,
		}
		for _, s := range tr.Steps {
			resp.Trace.Steps = append(resp.Trace.Steps, refTraceStep{s.Shard, s.ResidualBefore, s.MassConsumed, s.NodesEvaluated, s.DurationNS, s.WorkerNS})
		}
	}
	return resp
}

// encodeRef is encoding/json's encoding of v, trailing newline
// included.
func encodeRef(t *testing.T, v any) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := json.NewEncoder(&b).Encode(v); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// TestAppendTopKMatchesJSON pins the hand-written answer encoder to
// the reference shapes' encoding/json bytes on random answer sets whose
// scores cover both float formats and their edges: ordinary
// proximities, the 1e-6 and 1e21 exponent cutoffs, subnormals and
// arbitrary finite bit patterns. Bodies are untraced, cached, or carry
// a trace block: without steps (a traced cache hit among them), or
// with steps whose workerNs is zero or not.
func TestAppendTopKMatchesJSON(t *testing.T) {
	edges := []float64{
		0, math.Copysign(0, -1), 1, 1e-6, math.Nextafter(1e-6, 0), 1e-7, 1.5e-10,
		1e21, math.Nextafter(1e21, 0), 1e22, math.MaxFloat64,
		math.SmallestNonzeroFloat64, 2.2250738585072014e-308, 1e-310,
	}
	rng := rand.New(rand.NewSource(1))
	score := func() float64 {
		switch rng.Intn(4) {
		case 0:
			return edges[rng.Intn(len(edges))]
		case 1:
			for {
				if f := math.Float64frombits(rng.Uint64()); !math.IsNaN(f) && !math.IsInf(f, 0) {
					return f
				}
			}
		case 2:
			return math.Ldexp(rng.Float64(), -1070+rng.Intn(10)) // subnormal range
		}
		return rng.Float64()
	}
	kinds := map[string]int{}
	for trial := 0; trial < 3000; trial++ {
		results := make([]topk.Result, rng.Intn(12))
		for i := range results {
			results[i] = topk.Result{Node: rng.Intn(1 << 20), Score: score()}
		}
		if trial%7 == 0 {
			results = nil
		}
		stats := core.SearchStats{Visited: rng.Intn(1e6), ProximityComputations: rng.Intn(1e6), Terminated: rng.Intn(2) == 0}
		requestedK, cached := 1+rng.Intn(100), rng.Intn(2) == 0
		var tr *obs.QueryTrace
		kind := "untraced"
		switch rng.Intn(4) {
		case 1: // a traced cache hit: no push, only the barrier wait
			tr = &obs.QueryTrace{CacheHit: true, BarrierWaitNS: int64(rng.Intn(3)) * rng.Int63n(1e6)}
			stats, cached, kind = core.SearchStats{}, true, "traced cache hit"
		case 2, 3:
			tr = &obs.QueryTrace{
				SolveNS: rng.Int63n(1e9), RankNS: rng.Int63n(1e9), BarrierWaitNS: rng.Int63n(2) * rng.Int63n(1e6),
				ShardsSolved: rng.Intn(9), ShardsPruned: rng.Intn(9), NodesEvaluated: rng.Intn(1e5),
				Calls: rng.Intn(5), CutMassPruned: score(), Converged: rng.Intn(2) == 0,
			}
			kind = "traced, no steps"
			for i := rng.Intn(6); i > 0; i-- {
				step := obs.SolveStep{Shard: rng.Intn(16), ResidualBefore: score(), MassConsumed: score(), NodesEvaluated: rng.Intn(1e4), DurationNS: rng.Int63n(1e7)}
				if rng.Intn(2) == 0 {
					step.WorkerNS = 1 + rng.Int63n(step.DurationNS+1)
					kind = "traced, a worker step"
				} else if kind == "traced, no steps" {
					kind = "traced, in-process steps"
				}
				tr.AddStep(step, score())
				tr.Solves++
			}
		}
		kinds[kind]++
		want := encodeRef(t, refAnswer(requestedK, results, stats, cached, tr))
		if tr == nil {
			if got := appendTopK(nil, requestedK, results, stats, cached); !bytes.Equal(got, want) {
				t.Fatalf("trial %d:\nappendTopK    %s\nencoding/json %s", trial, got, want)
			}
		}
		rec := httptest.NewRecorder()
		writeResults(rec, requestedK, results, stats, cached, tr)
		if got := rec.Body.Bytes(); !bytes.Equal(got, want) {
			t.Fatalf("trial %d (%s):\nwriteResults  %s\nencoding/json %s", trial, kind, got, want)
		}
		if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
			t.Fatalf("trial %d: Content-Type %q", trial, ct)
		}
	}
	for _, kind := range []string{"untraced", "traced cache hit", "traced, no steps", "traced, in-process steps", "traced, a worker step"} {
		if kinds[kind] == 0 {
			t.Errorf("no %s body among the trials: %v", kind, kinds)
		}
	}
}

// TestBatchAndPersonalizedBodiesMatchJSON holds the /topk/batch and
// /personalized bodies a handler writes to the reference shapes'
// encoding/json bytes, on random requests against one- and four-shard
// engines, the reference built from the engine's own answers.
func TestBatchAndPersonalizedBodiesMatchJSON(t *testing.T) {
	_, one := testHandler(t)
	four := updatableHandler(t).snap().engine
	rng := rand.New(rand.NewSource(2))
	for name, engine := range map[string]shard.Engine{"shards=1": one, "shards=4": four} {
		h := New(engine)
		n := engine.N()
		for trial := 0; trial < 20; trial++ {
			var want refBatch
			var parts []string
			for i := 1 + rng.Intn(12); i > 0; i-- {
				q, k := rng.Intn(n), 1+rng.Intn(n+5)
				var exclude []int
				for j := rng.Intn(4); j > 0; j-- {
					exclude = append(exclude, rng.Intn(n+3))
				}
				ex, _ := json.Marshal(exclude)
				parts = append(parts, fmt.Sprintf(`{"q":%d,"k":%d,"exclude":%s}`, q, k, ex))
				opt := core.SearchOptions{K: k}
				if len(exclude) > 0 {
					opt.Exclude = map[int]bool{}
					for _, x := range exclude {
						opt.Exclude[x] = true
					}
				}
				results, stats, err := engine.Search(q, opt)
				if err != nil {
					t.Fatal(err)
				}
				want.Items = append(want.Items, refAnswer(k, results, stats, false, nil))
				want.Stats.Visited += int64(stats.Visited)
				want.Stats.ProximityComputations += int64(stats.ProximityComputations)
				if stats.Terminated {
					want.Stats.TerminatedEarly++
				}
			}
			want.Count, want.Stats.Queries = len(want.Items), len(want.Items)
			rec := post(t, h, "/topk/batch", `{"queries":[`+strings.Join(parts, ",")+`]}`)
			if wantBody := encodeRef(t, want); rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), wantBody) {
				t.Fatalf("%s trial %d: batch status %d\n%s\nwant\n%s", name, trial, rec.Code, rec.Body.Bytes(), wantBody)
			}

			seeds := map[int]float64{rng.Intn(n): 1, rng.Intn(n): 1 + rng.Float64()}
			k := 1 + rng.Intn(20)
			results, stats, err := engine.TopKPersonalizedContext(context.Background(), seeds, k)
			if err != nil {
				t.Fatal(err)
			}
			body, _ := json.Marshal(map[string]any{"seeds": seeds, "k": k})
			rec = post(t, h, "/personalized", string(body))
			if wantBody := encodeRef(t, refAnswer(k, results, stats, false, nil)); rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), wantBody) {
				t.Fatalf("%s trial %d: personalized status %d\n%s\nwant\n%s", name, trial, rec.Code, rec.Body.Bytes(), wantBody)
			}
		}
	}
}
