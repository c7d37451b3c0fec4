// Package placement implements distributed shard serving: a Worker that
// owns (a subset of) the shards and answers factor-solve RPCs against
// real factors — one call continues the push on the worker's shards for
// as long as they hold the most pending mass, each solve returning only
// the rows the coordinator names — and a Coordinator that runs the
// greedy cross-shard push locally over a factorless index, routing its
// solves to the worker the placement map (Assign) assigns each shard
// to. The shared on-disk manifest is the
// placement's source of truth: every process opens the same index
// directory, so node→shard assignment, cut lists and epoch numbering
// agree byte-for-byte across the cluster, and the coordinator's answers
// are bit-identical to a single process serving the same directory (see
// docs/ARCHITECTURE.md, "Distributed serving").
//
// Updates publish in two phases: the coordinator fans the delta out as
// Prepare (each worker applies the whole delta to its full copy of the
// index off to the side, rebuilding every dirty shard, served or not),
// commits only when every worker has the epoch staged, and binds each
// query to one epoch's solver — so no query ever sees mixed epochs. A
// worker that missed updates (restart, partition) answers wrongEpoch and
// is healed by replaying the coordinator's update chain.
package placement

import (
	"fmt"
	"net"
	"sync"
	"time"

	"kdash/internal/graph"
	"kdash/internal/rpc"
	"kdash/internal/shard"
)

// Worker serves one process's share of the solve load. It holds the
// last two committed epochs of the index (so queries bound to the
// previous epoch keep resolving during and shortly after a publish)
// plus any staged-but-uncommitted epoch from an in-flight two-phase
// publish. All methods are safe for concurrent RPC connections.
//
// A Worker owns a full copy of the index. A loaded shard is opened
// lazily, so only the shards the placement routes here are read from
// disk; but prepare runs the full ShardedIndex.Apply, so an update
// rebuilds every dirty shard on every worker, served here or not, and
// keeps the rebuilt factors on the Go heap. Applying the full delta
// keeps the worker's factors bit-identical to a single process applying
// the same chain.
type Worker struct {
	mu     sync.RWMutex
	cur    int
	epochs map[int]*shard.ShardedIndex
	staged map[int]*shard.ShardedIndex

	// scratch pools decoded run requests and their replies: decoding
	// into fresh slices per call measurably raised a worker's peak RSS
	// (49 -> 64 MB serving the 50k-node bench graph on 2 cores).
	scratch sync.Pool
}

// runScratch is one call's decoded run request and its reply.
type runScratch struct {
	run rpc.RunRowsRequest
	rep rpc.RunRowsReply
}

// NewWorker wraps an opened index as an RPC-servable worker.
func NewWorker(sx *shard.ShardedIndex) *Worker {
	return &Worker{
		cur:    sx.Epoch(),
		epochs: map[int]*shard.ShardedIndex{sx.Epoch(): sx},
		staged: map[int]*shard.ShardedIndex{},
	}
}

// at returns the committed index for epoch, or nil.
func (wk *Worker) at(epoch int) *shard.ShardedIndex {
	wk.mu.RLock()
	sx := wk.epochs[epoch]
	wk.mu.RUnlock()
	return sx
}

// Handle implements rpc.Handler.
func (wk *Worker) Handle(op uint8, body, resp []byte) ([]byte, error) {
	switch op {
	case rpc.OpPing:
		return resp, nil
	case rpc.OpHello:
		wk.mu.RLock()
		cur := wk.cur
		sx := wk.epochs[cur]
		wk.mu.RUnlock()
		return rpc.AppendHelloResponse(resp, rpc.HelloResponse{N: sx.N(), Shards: sx.Shards(), Epoch: cur}), nil
	case rpc.OpRunRows:
		return wk.runRows(body, resp)
	case rpc.OpPrepare:
		epoch, deltaBytes, err := rpc.DecodePrepareRequest(body)
		if err != nil {
			return nil, err
		}
		return resp, wk.prepare(epoch, deltaBytes)
	case rpc.OpCommit:
		epoch, err := rpc.DecodeEpochRequest(body)
		if err != nil {
			return nil, err
		}
		return resp, wk.commit(epoch)
	case rpc.OpAbort:
		epoch, err := rpc.DecodeEpochRequest(body)
		if err != nil {
			return nil, err
		}
		wk.mu.Lock()
		delete(wk.staged, epoch)
		wk.mu.Unlock()
		return resp, nil
	default:
		return nil, fmt.Errorf("placement: unknown op %d", op)
	}
}

// getScratch checks run scratch out of the worker's pool.
//
//kdash:pooled
func (wk *Worker) getScratch() *runScratch {
	if sc, ok := wk.scratch.Get().(*runScratch); ok {
		return sc
	}
	return &runScratch{}
}

// runRows answers one OpRunRows call: decode into pooled scratch,
// continue the push on the served shards against the requested epoch's
// real factors, and append the steps behind the worker's elapsed time
// to resp.
func (wk *Worker) runRows(body, resp []byte) ([]byte, error) {
	t0 := time.Now()
	sc := wk.getScratch()
	defer wk.scratch.Put(sc)
	if err := rpc.DecodeRunRowsRequest(body, &sc.run); err != nil {
		return nil, err
	}
	sx := wk.at(sc.run.Epoch)
	if sx == nil {
		return nil, rpc.ErrWrongEpoch
	}
	if err := sx.RunShardRows(&sc.run, &sc.rep); err != nil {
		return nil, err
	}
	sc.rep.WorkerNS = time.Since(t0).Nanoseconds()
	return rpc.AppendRunRowsReply(resp, &sc.rep), nil
}

// prepare stages the delta as the given epoch: the refactorization of
// dirty shards runs outside the lock against the current epoch, so
// in-flight solves keep answering while the new epoch builds. Prepare
// is idempotent (a committed or already-staged epoch succeeds without
// re-applying — the RPC layer may replay a call whose response was
// torn) and answers wrongEpoch for anything but the next epoch, which
// tells the coordinator to replay its chain.
func (wk *Worker) prepare(epoch int, deltaBytes []byte) error {
	wk.mu.Lock()
	if epoch <= wk.cur || wk.staged[epoch] != nil {
		wk.mu.Unlock()
		return nil
	}
	if epoch != wk.cur+1 {
		wk.mu.Unlock()
		return rpc.ErrWrongEpoch
	}
	base := wk.epochs[wk.cur]
	wk.mu.Unlock()

	batch, err := graph.UnmarshalDelta(deltaBytes)
	if err != nil {
		return err
	}
	next, _, err := base.Apply(batch)
	if err != nil {
		return err
	}
	wk.mu.Lock()
	defer wk.mu.Unlock()
	if epoch <= wk.cur || wk.staged[epoch] != nil {
		return nil // a concurrent replay won; results are identical bits
	}
	if epoch != wk.cur+1 {
		return rpc.ErrWrongEpoch
	}
	wk.staged[epoch] = next
	return nil
}

// commit publishes a staged epoch. Idempotent for already-committed
// epochs; wrongEpoch when the stage is missing. Only the last two
// committed epochs stay resident — a query bound to an older epoch gets
// wrongEpoch and the coordinator degrades it to unavailable.
func (wk *Worker) commit(epoch int) error {
	wk.mu.Lock()
	defer wk.mu.Unlock()
	if epoch <= wk.cur {
		return nil
	}
	next := wk.staged[epoch]
	if next == nil || epoch != wk.cur+1 {
		return rpc.ErrWrongEpoch
	}
	delete(wk.staged, epoch)
	wk.epochs[epoch] = next
	wk.cur = epoch
	for e := range wk.epochs {
		if e < wk.cur-1 {
			delete(wk.epochs, e)
		}
	}
	return nil
}

// ServeWorker serves solve and publish RPCs for sx on ln until the
// listener closes.
func ServeWorker(ln net.Listener, sx *shard.ShardedIndex) error {
	return rpc.Serve(ln, NewWorker(sx))
}
