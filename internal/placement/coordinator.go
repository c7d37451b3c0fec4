package placement

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"kdash/internal/core"
	"kdash/internal/graph"
	"kdash/internal/obs"
	"kdash/internal/rpc"
	"kdash/internal/shard"
	"kdash/internal/topk"
)

// Config tunes a Coordinator.
type Config struct {
	// Dial opens worker connections; nil uses plain TCP. The
	// differential harness injects rpc.FaultyDialer here.
	Dial rpc.DialFunc
	// Timeout bounds each worker call (0 = the rpc package default).
	Timeout time.Duration
}

// chainEntry is one published update: the epoch it produced and the
// delta's wire encoding, kept for replaying to workers that missed it.
type chainEntry struct {
	epoch int
	delta []byte
}

// cluster is the share-everything half of a coordinator: worker
// clients, the shard→worker placement, per-worker observability and
// the update chain. Successor coordinators from ApplyDelta share one
// cluster, so replay state and stats survive epoch swaps.
type cluster struct {
	clients   []*rpc.Client
	placement []int   // shard -> worker index
	served    [][]int // worker -> its shards, ascending

	lat        []*obs.Histogram // per-worker solve-call latency
	solves     []atomic.Int64   // per-worker solves the calls ran
	errs       []atomic.Int64   // per-worker failed calls
	reconnects []atomic.Int64   // per-worker recover (replay) rounds

	// mu serialises publishes and recoveries: an update fan-out and a
	// worker replay must not interleave, or the worker could observe
	// epochs out of order.
	mu        sync.Mutex
	baseEpoch int
	chain     []chainEntry
}

// call sends one solve request frame (rpc.Request) to shard si's
// worker and decodes the reply with decode, healing a lagging or
// restarted worker by replaying the update chain and retrying once.
// Every failure mode ends in a typed error: the caller sees the exact
// answer or ErrUnavailable, never a silently wrong result.
func (cl *cluster) call(si int, req []byte, decode func([]byte) error) error {
	w := cl.placement[si]
	t0 := time.Now()
	err := cl.clients[w].Send(req, decode)
	cl.lat[w].Observe(time.Since(t0))
	if err == nil {
		return nil
	}
	// One recovery round: re-handshake and replay whatever chain suffix
	// the worker is missing (covers restart-from-disk, which resets the
	// worker to the base epoch), then retry the call once.
	if rerr := cl.recover(w); rerr != nil {
		cl.errs[w].Add(1)
		return fmt.Errorf("worker %d unrecoverable: %w (after %v)", w, err, rerr)
	}
	if err = cl.clients[w].Send(req, decode); err == nil {
		return nil
	}
	cl.errs[w].Add(1)
	if errors.Is(err, rpc.ErrWrongEpoch) {
		// Replay brought the worker current, yet the requested epoch is
		// still not resident: it was evicted (this query outlived two
		// publishes). Degrade, do not guess.
		return fmt.Errorf("%w: epoch evicted from worker %d", rpc.ErrUnavailable, w)
	}
	return err
}

// recover re-handshakes worker w and replays every chain entry past the
// epoch the worker reports. Serialised with publishes via cl.mu.
func (cl *cluster) recover(w int) error {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	cl.reconnects[w].Add(1)
	return cl.replayLocked(w)
}

func (cl *cluster) replayLocked(w int) error {
	h, err := cl.clients[w].Hello()
	if err != nil {
		return err
	}
	for _, ce := range cl.chain {
		if ce.epoch <= h.Epoch {
			continue
		}
		if _, err := cl.clients[w].Call(rpc.OpPrepare, rpc.AppendPrepareRequest(nil, ce.epoch, ce.delta)); err != nil {
			return err
		}
		if _, err := cl.clients[w].Call(rpc.OpCommit, rpc.AppendEpochRequest(nil, ce.epoch)); err != nil {
			return err
		}
	}
	return nil
}

// epochSolver binds solve RPCs to one epoch — the shard.RemoteSolver a
// coordinator installs on each epoch's index, so every query resolves
// against exactly the factors its epoch published and a publish
// mid-query can never mix bits from two epochs.
type epochSolver struct {
	cl    *cluster
	epoch int
}

// RunRows implements shard.RemoteSolver with one OpRunRows call to
// shard si's worker, encoded straight into its frame.
func (es *epochSolver) RunRows(si int, q *rpc.RunRowsRequest, rep *rpc.RunRowsReply) error {
	w := es.cl.placement[si]
	q.Epoch, q.Served = es.epoch, es.cl.served[w]
	req := rpc.AppendRunRowsRequest(rpc.Request(rpc.OpRunRows, q.Len()), q)
	if err := es.cl.call(si, req, func(resp []byte) error { return rpc.DecodeRunRowsReply(resp, rep) }); err != nil {
		return err
	}
	es.cl.solves[w].Add(int64(len(rep.Steps)))
	return nil
}

// Coordinator serves the full engine surface from a factorless index,
// fanning factor solves out to workers. Like the index itself it is
// functional: ApplyDelta returns a successor Coordinator for the new
// epoch, sharing the cluster, while the receiver keeps serving the old
// epoch bit-exactly.
type Coordinator struct {
	sx *shard.ShardedIndex
	cl *cluster
}

var _ shard.Engine = (*Coordinator)(nil)

// NewCoordinator opens the index directory factorless (manifest,
// assignment, cuts and graph snapshot only — no shard file is ever
// opened; the snapshot, which the rank searches, is parsed on the first
// query), connects to the workers and validates that each serves the
// same index shape at the same epoch, and binds the base epoch's
// remote solver. The placement (Assign) balances the shards across the
// workers and keeps the shards with the most cut weight between them on
// one worker, computed once here from the cut lists; ApplyDelta's
// successors share it. Only the coordinator knows it — a worker derives
// no placement, serves whichever shards it is asked to and opens each
// on first use.
func NewCoordinator(dir string, addrs []string, cfg Config) (*Coordinator, error) {
	if len(addrs) == 0 {
		return nil, fmt.Errorf("placement: no worker addresses")
	}
	sx, err := shard.Open(dir, shard.LoadOptions{Lazy: true})
	if err != nil {
		return nil, err
	}
	sx.SetFactorless()
	cl := &cluster{
		clients:    make([]*rpc.Client, len(addrs)),
		placement:  Assign(sx.CutWeights(), len(addrs)),
		served:     make([][]int, len(addrs)),
		lat:        make([]*obs.Histogram, len(addrs)),
		solves:     make([]atomic.Int64, len(addrs)),
		errs:       make([]atomic.Int64, len(addrs)),
		reconnects: make([]atomic.Int64, len(addrs)),
		baseEpoch:  sx.Epoch(),
	}
	for si, w := range cl.placement {
		cl.served[w] = append(cl.served[w], si)
	}
	for w, addr := range addrs {
		cl.clients[w] = rpc.NewClient(addr, cfg.Dial, cfg.Timeout)
		cl.lat[w] = &obs.Histogram{}
		h, err := cl.clients[w].Hello()
		if err != nil {
			return nil, fmt.Errorf("placement: worker %d (%s): %w", w, addr, err)
		}
		if h.N != sx.N() || h.Shards != sx.Shards() || h.Epoch != sx.Epoch() {
			return nil, fmt.Errorf("placement: worker %d (%s) serves n=%d shards=%d epoch=%d, coordinator has n=%d shards=%d epoch=%d",
				w, addr, h.N, h.Shards, h.Epoch, sx.N(), sx.Shards(), sx.Epoch())
		}
	}
	co := &Coordinator{sx: sx, cl: cl}
	co.bindSolver()
	return co, nil
}

// Assign is the coordinator's placement map, shard -> worker, for the
// shards whose cut weights cut lists (CutWeights: cut[a][b] from shard a
// into b). Every worker gets ⌊S/W⌋ or ⌈S/W⌉ of the S shards, and the cut
// weight between shards on different workers is made small: a push
// continues on one worker while the shard with the most pending mass is
// its own, so mass crossing between workers is what costs calls. Start
// from contiguous blocks (the first S mod W workers one shard longer),
// then apply the pairwise swap that lowers the cross-worker weight most
// — the first pair in (a, b) order among equals — while one lowers it
// by more than rounding. The result depends on its arguments only.
// Workers never call it; each serves whatever shards it is asked to.
func Assign(cut [][]float64, workers int) []int {
	s := len(cut)
	p := make([]int, s)
	for w, si := 0, 0; w < workers; w++ {
		n := s / workers
		if w < s%workers {
			n++
		}
		for ; n > 0; n-- {
			p[si] = w
			si++
		}
	}
	// sym[a][b] is the weight between a and b both ways; to[a][w] is a's
	// weight to the shards on worker w.
	sym, to := make([][]float64, s), make([][]float64, s)
	total := 0.0
	for a := range sym {
		sym[a], to[a] = make([]float64, s), make([]float64, workers)
	}
	for a := range cut {
		for b, x := range cut[a] {
			if a != b {
				sym[a][b] += x
				sym[b][a] += x
				total += x
			}
		}
	}
	for a := range sym {
		for b, x := range sym[a] {
			to[a][p[b]] += x
		}
	}
	for {
		ba, bb, best := -1, -1, 1e-9*total
		for a := 0; a < s; a++ {
			for b := a + 1; b < s; b++ {
				wa, wb := p[a], p[b]
				if wa == wb {
					continue
				}
				// Moving a to wb and b to wa.
				if gain := to[a][wb] - to[a][wa] + to[b][wa] - to[b][wb] - 2*sym[a][b]; gain > best {
					ba, bb, best = a, b, gain
				}
			}
		}
		if ba < 0 {
			return p
		}
		wa, wb := p[ba], p[bb]
		p[ba], p[bb] = wb, wa
		for x := range sym {
			to[x][wa] += sym[x][bb] - sym[x][ba]
			to[x][wb] += sym[x][ba] - sym[x][bb]
		}
	}
}

// bindSolver installs this epoch's remote solver on the index.
func (co *Coordinator) bindSolver() {
	co.sx.SetRemoteSolver(&epochSolver{cl: co.cl, epoch: co.sx.Epoch()})
}

// ApplyDelta publishes an update across the cluster with a two-phase
// epoch publish and returns the successor Coordinator. Order: the
// coordinator applies the delta to its factorless index (placement and
// cut bookkeeping only — no factorization), fans Prepare out to every
// worker in parallel (each applies the whole delta, rebuilding every
// dirty shard, off to the side while old-epoch queries keep resolving), and commits only once
// every worker holds the stage. Any Prepare failure aborts the stage
// everywhere and returns ErrUnavailable with the old epoch fully
// intact; a Commit straggler is tolerated — it heals through the
// wrongEpoch→replay path on its next query.
func (co *Coordinator) ApplyDelta(batch *graph.Delta) (shard.Engine, shard.UpdateStats, error) {
	cl := co.cl
	cl.mu.Lock()
	defer cl.mu.Unlock()

	deltaBytes := batch.AppendBinary(nil)
	sx2, us, err := co.sx.Apply(batch)
	if err != nil {
		return nil, us, err
	}
	epoch2 := sx2.Epoch()

	prepBody := rpc.AppendPrepareRequest(nil, epoch2, deltaBytes)
	errs := make([]error, len(cl.clients))
	var wg sync.WaitGroup
	for w := range cl.clients {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			_, errs[w] = cl.clients[w].Call(rpc.OpPrepare, prepBody)
		}(w)
	}
	wg.Wait()
	// A worker that answered wrongEpoch or tore its connection may just
	// be lagging (restarted from disk): replay it current and retry its
	// Prepare once, sequentially — this is the slow path.
	for w, werr := range errs {
		if werr == nil {
			continue
		}
		if rerr := cl.replayLocked(w); rerr == nil {
			_, errs[w] = cl.clients[w].Call(rpc.OpPrepare, prepBody)
		}
	}
	for w, werr := range errs {
		if werr != nil {
			abortBody := rpc.AppendEpochRequest(nil, epoch2)
			for aw := range cl.clients {
				cl.clients[aw].Call(rpc.OpAbort, abortBody) //nolint:errcheck // best-effort cleanup; an orphaned stage is dropped on the worker's next publish
			}
			return nil, us, fmt.Errorf("%w: prepare epoch %d on worker %d: %v", rpc.ErrUnavailable, epoch2, w, werr)
		}
	}

	commitBody := rpc.AppendEpochRequest(nil, epoch2)
	for w := range cl.clients {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			if _, err := cl.clients[w].Call(rpc.OpCommit, commitBody); err != nil {
				cl.errs[w].Add(1) // tolerated: heals via wrongEpoch→replay
			}
		}(w)
	}
	wg.Wait()

	cl.chain = append(cl.chain, chainEntry{epoch: epoch2, delta: deltaBytes})
	next2 := &Coordinator{sx: sx2, cl: cl}
	next2.bindSolver()
	return next2, us, nil
}

// Close drops the worker connections and closes the underlying
// factorless index, which holds no shard memory: only its sealed graph
// snapshot and partition container are released.
func (co *Coordinator) Close() error {
	for _, c := range co.cl.clients {
		c.Close()
	}
	return co.sx.Close()
}

// N implements shard.Engine.
func (co *Coordinator) N() int { return co.sx.N() }

// Restart implements shard.Engine.
func (co *Coordinator) Restart() float64 { return co.sx.Restart() }

// Epoch reports the serving epoch (server /statz and update seeding).
func (co *Coordinator) Epoch() int { return co.sx.Epoch() }

// Shards reports the shard count.
func (co *Coordinator) Shards() int { return co.sx.Shards() }

// Graph exposes the current graph snapshot (WAL-mode ack validation).
func (co *Coordinator) Graph() *graph.Graph { return co.sx.Graph() }

// WALSeq reports the WAL position the loaded snapshot covers.
func (co *Coordinator) WALSeq() uint64 { return co.sx.WALSeq() }

// GraphBytes reports the graph snapshot's size by backing; see
// shard.Engine.
func (co *Coordinator) GraphBytes() (sealed, heap int64) { return co.sx.GraphBytes() }

// Search implements shard.Engine.
func (co *Coordinator) Search(q int, opt core.SearchOptions) ([]topk.Result, core.SearchStats, error) {
	return co.sx.Search(q, opt)
}

// TopK answers top-k through the distributed push.
//
//kdash:testonly
func (co *Coordinator) TopK(q, k int) ([]topk.Result, shard.QueryStats, error) {
	return co.sx.TopK(q, k)
}

// TopKBatch answers a batch query by query through the distributed
// push; its solves ride RunRows calls.
//
//kdash:testonly
func (co *Coordinator) TopKBatch(qs []int, k int) ([][]topk.Result, shard.BatchStats, error) {
	return co.sx.TopKBatch(qs, k)
}

// TopKPersonalized answers a personalized query through the
// distributed push.
//
//kdash:testonly
func (co *Coordinator) TopKPersonalized(seeds map[int]float64, k int) ([]topk.Result, core.SearchStats, error) {
	return co.sx.TopKPersonalized(seeds, k)
}

// TopKPersonalizedContext implements shard.Engine.
func (co *Coordinator) TopKPersonalizedContext(ctx context.Context, seeds map[int]float64, k int) ([]topk.Result, core.SearchStats, error) {
	return co.sx.TopKPersonalizedContext(ctx, seeds, k)
}

// Proximity answers one proximity through the distributed push.
//
//kdash:testonly
func (co *Coordinator) Proximity(q, u int) (float64, error) { return co.sx.Proximity(q, u) }

// ProximityContext implements shard.Engine.
func (co *Coordinator) ProximityContext(ctx context.Context, q, u int) (float64, error) {
	return co.sx.ProximityContext(ctx, q, u)
}

// Statz adds the cluster block to the index's own document: per-worker
// call counts and latency, the solves those calls ran, failed calls and
// replay rounds, plus the update chain's base and length.
func (co *Coordinator) Statz() shard.Statz {
	st := co.sx.Statz()
	cs := &shard.ClusterStatz{
		BaseEpoch: co.cl.baseEpoch,
		ChainLen:  len(co.cl.chain),
		Workers:   make([]shard.WorkerStatz, len(co.cl.clients)),
	}
	for w, c := range co.cl.clients {
		snap := co.cl.lat[w].Snapshot()
		cs.Workers[w] = shard.WorkerStatz{
			Addr:       c.Addr(),
			Calls:      snap.Count,
			Errors:     co.cl.errs[w].Load(),
			MeanMicros: snap.Mean() / 1e3,
			P99Micros:  float64(snap.Quantile(0.99)) / 1e3,
			Replays:    co.cl.reconnects[w].Load(),
			Shards:     len(co.cl.served[w]),
			Solves:     co.cl.solves[w].Load(),
		}
	}
	st.Cluster = cs
	return st
}

// ErrNoSnapshot is SaveWALSnapshot's answer: a factorless coordinator
// holds no factors, so WAL snapshots come from a single-process server
// over the same directory.
var ErrNoSnapshot = errors.New("a factorless coordinator has no factors to snapshot (take snapshots from a single-process server over the same directory)")

// SaveWALSnapshot implements shard.Engine; it always fails with
// ErrNoSnapshot.
func (co *Coordinator) SaveWALSnapshot(string, uint64) error { return ErrNoSnapshot }
