package placement

// Native fuzz target for the worker's request decode paths: any opcode
// byte with any body, handed to Worker.Handle over a tiny index, must
// come back as an answer or an error — never a panic, which would take
// the whole worker process down (rpc.ServeConn does not recover). A
// row solve the worker accepts must name an in-range shard, in-range
// rows and strictly ascending in-range right-hand-side ids, and its
// reply must be exactly the header plus 8 bytes per requested value.
//
// Run with:
//
//	go test -fuzz=FuzzWorkerHandle ./internal/placement

import (
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
	solve := func(epoch, si int, rows, ptr, idx []int, val []float64) []byte {
		return rpc.AppendSolveRowsRequest(nil, epoch, si, rows, ptr, idx, val)
	}
	owned := make([]int, sx.Shards()) // per shard, its own rows; its ghost sink's row follows
	for _, si := range sx.Assignment() {
		owned[si]++
	}
	n0 := sx.PartLen(0)
	f.Add(rpc.OpSolveRows, solve(e, 0, []int{0, 1, owned[0] - 1}, []int{0, 1, 3}, []int{0, 1, 2}, []float64{1, 0.5, 0.25}))
	f.Add(rpc.OpSolveRows, solve(e, 0, []int{n0 - 1}, []int{0, 1}, []int{0}, []float64{1}))  // the sink row, if shard 0 has one
	f.Add(rpc.OpSolveRows, solve(e, 1, []int{0}, []int{0, 0}, nil, nil))                     // one empty right-hand side
	f.Add(rpc.OpSolveRows, solve(e, 0, []int{n0}, []int{0, 1}, []int{0}, []float64{1}))      // row past partLen
	f.Add(rpc.OpSolveRows, solve(e, 2, []int{0}, []int{0, 1}, []int{0}, []float64{1}))       // shard out of range
	f.Add(rpc.OpSolveRows, solve(e, 0, []int{0}, []int{0, 2}, []int{2, 1}, []float64{1, 1})) // descending ids
	f.Add(rpc.OpSolveRows, solve(e+5, 0, []int{0}, []int{0, 1}, []int{0}, []float64{1}))     // epoch not resident
	f.Add(uint8(2), rpc.AppendSolveRowsRequest(nil, e, 0, nil, []int{0, 1}, []int{0}, []float64{1}))
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

	f.Fuzz(func(t *testing.T, op uint8, body []byte) {
		if op == rpc.OpPrepare {
			if _, delta, err := rpc.DecodePrepareRequest(body); err == nil {
				if d, err := graph.UnmarshalDelta(delta); err == nil && d.AddedNodes() > maxFuzzNodeInsertions {
					t.Skip("node insertions beyond the fuzz bound")
				}
			}
		}
		wk := NewWorker(sx)
		resp, err := wk.Handle(op, body)
		if op != rpc.OpSolveRows || err != nil {
			return
		}
		var req rpc.SolveRowsRequest
		if derr := rpc.DecodeSolveRowsRequest(body, &req); derr != nil {
			t.Fatalf("worker answered a request that does not decode: %v", derr)
		}
		if req.Shard < 0 || req.Shard >= sx.Shards() {
			t.Fatalf("worker solved shard %d of %d", req.Shard, sx.Shards())
		}
		for _, lv := range req.Rows {
			if lv < 0 || lv >= owned[req.Shard] {
				t.Fatalf("worker answered row %d outside the owned [0,%d)", lv, owned[req.Shard])
			}
		}
		n := sx.PartLen(req.Shard)
		for r := 0; r+1 < len(req.Ptr); r++ {
			prev := -1
			for _, u := range req.Idx[req.Ptr[r]:req.Ptr[r+1]] {
				if u <= prev || u >= n {
					t.Fatalf("worker accepted right-hand side %d with id %d after %d (partLen %d)", r, u, prev, n)
				}
				prev = u
			}
		}
		if want := rpc.SolveRowsReplyHeader + 8*(len(req.Ptr)-1)*len(req.Rows); len(resp) != want {
			t.Fatalf("reply is %d bytes, want %d", len(resp), want)
		}
	})
}
