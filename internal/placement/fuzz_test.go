package placement

// Native fuzz target for the worker's request decode paths: any opcode
// byte with any body, handed to Worker.Handle over a tiny index, must
// come back as an answer or an error — never a panic, which would take
// the whole worker process down (rpc.ServeConn does not recover). A
// retired opcode (2, 3 and 8) is refused. A run the worker accepts must
// decode, and so must its reply, every step of which solves a shard the
// request serves and carries one value per row of that shard's cut rows
// and prefix rows.
//
// Run with:
//
//	go test -fuzz=FuzzWorkerHandle ./internal/placement

import (
	"maps"
	"math"
	"slices"
	"sync"
	"testing"

	"kdash/internal/graph"
	"kdash/internal/reorder"
	"kdash/internal/rpc"
	"kdash/internal/shard"
	"kdash/internal/testutil"
)

var fuzzIndex struct {
	once sync.Once
	sx   *shard.ShardedIndex
	err  error
}

// fuzzWorkerIndex builds one small sharded index per process.
func fuzzWorkerIndex(f *testing.F) *shard.ShardedIndex {
	f.Helper()
	fuzzIndex.once.Do(func() {
		fuzzIndex.sx, fuzzIndex.err = shard.Build(testutil.Clustered(40, 2, 3), shard.Options{Shards: 2, Reorder: reorder.Hybrid, Seed: 3})
	})
	if fuzzIndex.err != nil {
		f.Fatal(fuzzIndex.err)
	}
	return fuzzIndex.sx
}

// maxFuzzNodeInsertions bounds the node insertions of a fuzzed Prepare.
// Inserting nodes costs memory in proportion to their count by design
// (the graph and the shard receiving them grow), so a blob claiming
// 2^40 of them is a resource question for the coordinator that sent it,
// not a decode fault; the decoder itself runs in O(bytes) regardless.
const maxFuzzNodeInsertions = 1 << 10

func FuzzWorkerHandle(f *testing.F) {
	sx := fuzzWorkerIndex(f)
	e := sx.Epoch()
	run := func(edit func(q *rpc.RunRowsRequest)) []byte {
		q := rpc.RunRowsRequest{
			Epoch: e, Served: []int{0, 1}, Mass: []float64{1, 0.5}, Tol: 1e-9, Budget: 100,
			ResPtr: []int{0, 2, 3}, ResIdx: []int{0, 1, 0}, ResVal: []float64{0.75, 0.25, 0.5},
			PrePtr: []int{0, 1, 1}, PreRows: []int{0},
		}
		edit(&q)
		return rpc.AppendRunRowsRequest(nil, &q)
	}
	valid := run(func(*rpc.RunRowsRequest) {})
	f.Add(uint8(8), valid) // the retired row solve, with a body another op accepts
	f.Add(uint8(2), valid)
	f.Add(uint8(3), valid)
	f.Add(rpc.OpRunRows, run(func(q *rpc.RunRowsRequest) { q.PreRows[0] = sx.PartLen(0) - 1 })) // a prefix row that is the sink's, if shard 0 has one
	f.Add(rpc.OpRunRows, run(func(q *rpc.RunRowsRequest) { q.ResIdx[1] = sx.PartLen(0) }))      // a residual id past partLen
	f.Add(rpc.OpRunRows, run(func(q *rpc.RunRowsRequest) { q.ResVal[2] = 0 }))                  // a zero residual value
	f.Add(rpc.OpRunRows, run(func(q *rpc.RunRowsRequest) { q.Served = []int{1, 0} }))           // served shards descending
	f.Add(rpc.OpRunRows, run(func(q *rpc.RunRowsRequest) { q.Tol = math.Inf(1) }))              // an infinite tolerance
	d := sx.Graph().NewDelta()
	if err := d.AddEdge(0, 1, 2); err != nil {
		f.Fatal(err)
	}
	f.Add(rpc.OpPrepare, rpc.AppendPrepareRequest(nil, e+1, d.AppendBinary(nil)))
	f.Add(rpc.OpCommit, rpc.AppendEpochRequest(nil, e+1))
	f.Add(rpc.OpAbort, rpc.AppendEpochRequest(nil, e+1))
	f.Add(rpc.OpHello, []byte(nil))
	f.Add(rpc.OpPing, []byte(nil))
	f.Add(uint8(255), []byte{1, 2, 3})
	f.Add(rpc.OpRunRows, valid)                            // a run over both shards
	f.Add(rpc.OpRunRows, run(func(q *rpc.RunRowsRequest) { // shard 0 holds the most mass but is not served: no step
		q.Served, q.ResPtr, q.ResIdx, q.ResVal, q.PrePtr, q.PreRows = []int{1}, []int{0, 0, 1}, []int{0}, []float64{0.5}, []int{0, 0, 0}, nil
	}))
	f.Add(rpc.OpRunRows, run(func(q *rpc.RunRowsRequest) { q.ResIdx[0], q.ResIdx[1] = 1, 0 })) // descending residual ids
	f.Add(rpc.OpRunRows, run(func(q *rpc.RunRowsRequest) { q.Mass[1] = math.NaN() }))          // a NaN mass
	f.Add(rpc.OpRunRows, run(func(q *rpc.RunRowsRequest) { q.Mass[1] = -0.5 }))                // a negative mass
	f.Add(rpc.OpRunRows, run(func(q *rpc.RunRowsRequest) { q.Budget = 0 }))                    // no solves left
	f.Add(rpc.OpRunRows, run(func(q *rpc.RunRowsRequest) { q.Epoch = e + 5 }))                 // epoch not resident
	f.Add(rpc.OpRunRows, run(func(q *rpc.RunRowsRequest) {                                     // shard out of range
		q.Served, q.Mass, q.ResPtr, q.PrePtr = []int{0, 2}, []float64{1, 0, 0}, []int{0, 2, 3, 3}, []int{0, 1, 1, 1}
	}))

	// cutRows[si] holds the local rows of shard si's nodes with an edge
	// into another shard; local ids follow ascending global ids.
	cutRows := make([]map[int]bool, sx.Shards())
	local := make([]int, sx.N())
	seen := make([]int, sx.Shards())
	for u, si := range sx.Assignment() {
		local[u] = seen[si]
		seen[si]++
	}
	for si := range cutRows {
		cutRows[si] = map[int]bool{}
	}
	for u := 0; u < sx.N(); u++ {
		sx.Graph().OutNeighbors(u, func(v int, _ float64) {
			if sx.HomeShard(v) != sx.HomeShard(u) {
				cutRows[sx.HomeShard(u)][local[u]] = true
			}
		})
	}

	f.Fuzz(func(t *testing.T, op uint8, body []byte) {
		if op == rpc.OpPrepare {
			if _, delta, err := rpc.DecodePrepareRequest(body); err == nil {
				if d, err := graph.UnmarshalDelta(delta); err == nil && d.AddedNodes() > maxFuzzNodeInsertions {
					t.Skip("node insertions beyond the fuzz bound")
				}
			}
		}
		wk := NewWorker(sx)
		resp, err := wk.Handle(op, body, nil)
		if retired := op == 2 || op == 3 || op == 8; retired && err == nil {
			t.Fatalf("retired op %d answered", op)
		}
		if err != nil {
			return
		}
		if op == rpc.OpRunRows {
			var req rpc.RunRowsRequest
			if derr := rpc.DecodeRunRowsRequest(body, &req); derr != nil {
				t.Fatalf("worker answered a run request that does not decode: %v", derr)
			}
			var rep rpc.RunRowsReply
			if derr := rpc.DecodeRunRowsReply(resp, &rep); derr != nil {
				t.Fatalf("run reply does not decode: %v", derr)
			}
			for s, si := range rep.Steps {
				if !slices.Contains(req.Served, si) {
					t.Fatalf("step %d solved shard %d outside the served %v", s, si, req.Served)
				}
				rows := maps.Clone(cutRows[si])
				for _, lv := range req.PreRows[req.PrePtr[si]:req.PrePtr[si+1]] {
					rows[lv] = true
				}
				if got := rep.Ptr[s+1] - rep.Ptr[s]; got != len(rows) {
					t.Fatalf("step %d (shard %d): %d values for %d rows", s, si, got, len(rows))
				}
			}
		}
	})
}
