package shard

// The serving seam: internal/server reaches the sharded engine only
// through Engine, implemented in process by *ShardedIndex and over
// workers by placement.Coordinator.

import (
	"context"

	"kdash/internal/core"
	"kdash/internal/graph"
	"kdash/internal/topk"
)

// Engine is what the HTTP tier needs from the index it serves; every
// method is required. An engine is immutable: ApplyDelta returns the
// successor epoch and leaves the receiver serving the old one
// bit-exactly.
type Engine interface {
	N() int
	Restart() float64
	// Epoch counts the updates folded into the engine; it is persisted.
	Epoch() int
	// Graph is the epoch's graph snapshot, which WAL mode validates
	// removals against; nil only if a deferred snapshot failed to load.
	Graph() *graph.Graph
	// WALSeq is the last WAL sequence number the loaded snapshot covers:
	// recovery replays the records after it.
	WALSeq() uint64
	// GraphBytes is the size of the graph snapshot the epoch ranks
	// over, sealed off the heap (a loaded graph.idx; 0 once an update
	// has replaced it) or on the Go heap (a built graph or an update's
	// successor); both 0 while a lazy open is still pending.
	GraphBytes() (sealed, heap int64)

	// The queries honour cancellation: Search through opt.Ctx, the
	// others through ctx, each checked between shard solves.
	Search(q int, opt core.SearchOptions) ([]topk.Result, core.SearchStats, error)
	TopKPersonalizedContext(ctx context.Context, seeds map[int]float64, k int) ([]topk.Result, core.SearchStats, error)
	ProximityContext(ctx context.Context, q, u int) (float64, error)

	ApplyDelta(batch *graph.Delta) (Engine, UpdateStats, error)
	// Statz is the /statz "index" block, which /metrics also reads.
	Statz() Statz
	// SaveWALSnapshot saves the engine into dir stamped with the WAL
	// position seq its state covers and the live log segments.
	SaveWALSnapshot(dir string, seq uint64, segments []string) error
}

var _ Engine = (*ShardedIndex)(nil)

// Statz is an engine's observability document. Fields are declared in
// key order, so it encodes byte for byte as the sorted-key map it
// replaced.
type Statz struct {
	Cluster       *ClusterStatz `json:"cluster,omitempty"` // coordinator only
	CutEdges      int           `json:"cutEdges"`
	CutWeightFrac float64       `json:"cutWeightFrac"`
	Kind          string        `json:"kind"` // always "sharded"
	NNZInverse    int           `json:"nnzInverse"`
	Nodes         int           `json:"nodes"`
	PerShard      []ShardStatz  `json:"perShard"`
	Restart       float64       `json:"restart"`
	Shards        int           `json:"shards"`
	ShardsOpened  int           `json:"shardsOpened"`
	Solves        int64         `json:"solves"` // factor solves this epoch
}

// ShardStatz is one shard's entry in Statz.PerShard.
type ShardStatz struct {
	CutEdges   int   `json:"cutEdges"`
	NNZInverse int   `json:"nnzInverse"`
	Nodes      int   `json:"nodes"`
	Opened     bool  `json:"opened"`
	Solves     int64 `json:"solves"`
}

// ClusterStatz is a coordinator's update chain and per-worker stats.
type ClusterStatz struct {
	BaseEpoch int           `json:"baseEpoch"`
	ChainLen  int           `json:"chainLen"`
	Workers   []WorkerStatz `json:"workers"`
}

// WorkerStatz is one worker's solve calls: count, latency, the solves
// they ran, calls failed after retry and replay, chain-replay rounds,
// and the shards the placement assigns it.
type WorkerStatz struct {
	Addr       string  `json:"addr"`
	Calls      uint64  `json:"calls"`
	Errors     int64   `json:"errors"`
	MeanMicros float64 `json:"meanMicros"`
	P99Micros  float64 `json:"p99Micros"`
	Replays    int64   `json:"replays"`
	Shards     int     `json:"shards"`
	Solves     int64   `json:"solves"`
}

// Statz never forces a lazy shard open: an unopened shard reports its
// manifest nnz and Opened=false, so ShardsOpened shows demand paging at
// work.
func (sx *ShardedIndex) Statz() Statz {
	st := Statz{
		CutEdges:      sx.stats.CutEdges,
		CutWeightFrac: sx.stats.CutWeightFrac,
		Kind:          "sharded",
		NNZInverse:    sx.stats.NNZInverse,
		Nodes:         sx.n,
		PerShard:      make([]ShardStatz, len(sx.parts)),
		Restart:       sx.c,
		Shards:        len(sx.parts),
	}
	counters := sx.solveCounters()
	for i, p := range sx.parts {
		ix := p.tryIndex()
		if ix != nil {
			st.ShardsOpened++
		}
		sc := counters[i].Load()
		st.Solves += sc
		st.PerShard[i] = ShardStatz{CutEdges: len(p.cuts), NNZInverse: p.nnzInverse(), Nodes: len(p.nodes), Opened: ix != nil, Solves: sc}
	}
	return st
}

// ApplyDelta is Apply behind the Engine seam.
func (sx *ShardedIndex) ApplyDelta(batch *graph.Delta) (Engine, UpdateStats, error) {
	sx2, us, err := sx.Apply(batch)
	if err != nil {
		return nil, us, err
	}
	return sx2, us, nil
}

// SaveWALSnapshot stamps the WAL position and saves the index. Apply
// does not carry the stamp forward: a successor with further deltas
// applied no longer matches it.
func (sx *ShardedIndex) SaveWALSnapshot(dir string, seq uint64, segments []string) error {
	sx.walSeq = seq
	sx.walSegments = append([]string(nil), segments...)
	return sx.Save(dir)
}
