package server

// POST /update: the dynamic-graph surface. The request body is one
// batch of mutations; the handler validates it fully, hands it to the
// engine's ApplyDelta, and atomically swaps the engine pointer to the
// returned successor epoch. In-flight queries loaded the old pointer
// and finish against the old (still fully valid) index — the drain is
// free because epochs are immutable — while every request arriving
// after the swap sees the new one. Updates are serialised through a
// mutex: the write path is single-writer by design, the read path
// never blocks.

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"time"

	"kdash/internal/graph"
)

// MaxAddNodes bounds node insertions per /update request, so a single
// request cannot balloon the index arbitrarily.
const MaxAddNodes = 65536

// MaxEdgeOps bounds addEdges + removeEdges per /update request, and
// maxUpdateBody caps the request body read at all — together they keep
// one request from exhausting memory or monopolising the single-writer
// update lock with a multi-second apply.
const MaxEdgeOps = 65536

// maxUpdateBody comfortably fits MaxEdgeOps JSON edge ops (~64 bytes
// each) plus slack.
const maxUpdateBody = 8 << 20

// edgeJSON is one edge op on the wire; Weight is ignored for removals.
type edgeJSON struct {
	From   int     `json:"from"`
	To     int     `json:"to"`
	Weight float64 `json:"weight,omitempty"`
}

// updateRequest is the POST /update payload. Ops apply in field order:
// node insertions first (their ids are n, n+1, ... and may be used by
// the edge ops), then edge additions, then removals.
type updateRequest struct {
	AddNodes    int        `json:"addNodes,omitempty"`
	AddEdges    []edgeJSON `json:"addEdges,omitempty"`
	RemoveEdges []edgeJSON `json:"removeEdges,omitempty"`
}

// updateResponse reports the applied batch.
type updateResponse struct {
	Epoch         int   `json:"epoch"`
	Nodes         int   `json:"nodes"` // node count after the update
	EdgesAdded    int   `json:"edgesAdded"`
	EdgesRemoved  int   `json:"edgesRemoved"`
	NodesAdded    int   `json:"nodesAdded"`
	ShardsRebuilt int   `json:"shardsRebuilt"`
	Repartitioned bool  `json:"repartitioned"`
	FullRebuild   bool  `json:"fullRebuild"`
	ApplyMillis   int64 `json:"applyMillis"`
}

// update handles POST /update.
func (h *Handler) update(w http.ResponseWriter, r *http.Request, _ url.Values) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "use POST")
		return
	}
	var req updateRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxUpdateBody)).Decode(&req); err != nil {
		h.badRequest(w, "bad JSON: %v", err)
		return
	}
	if req.AddNodes < 0 {
		h.badRequest(w, "addNodes must be non-negative, got %d", req.AddNodes)
		return
	}
	if req.AddNodes > MaxAddNodes {
		h.badRequest(w, "addNodes %d exceeds limit %d", req.AddNodes, MaxAddNodes)
		return
	}
	if ops := len(req.AddEdges) + len(req.RemoveEdges); ops > MaxEdgeOps {
		h.badRequest(w, "%d edge ops exceed limit %d", ops, MaxEdgeOps)
		return
	}
	if req.AddNodes == 0 && len(req.AddEdges) == 0 && len(req.RemoveEdges) == 0 {
		h.badRequest(w, "empty update")
		return
	}

	// Durable mode: ack after a WAL append (microseconds) and let the
	// background compactor fold the batch in; see wal.go.
	if h.wals != nil {
		h.updateWAL(w, &req)
		return
	}

	// Serialise appliers: the batch must be validated against the epoch
	// it will actually apply to, so the snapshot is taken under the lock.
	h.updateMu.Lock()
	defer h.updateMu.Unlock()
	st := h.snap()
	batch, err := buildDelta(st.engine.N(), &req)
	if err != nil {
		h.badRequest(w, "%v", err)
		return
	}

	t0 := time.Now()
	engine, stats, err := st.engine.ApplyDelta(batch)
	applied := time.Since(t0)
	if err != nil {
		switch {
		// The one engine-side failure a client can cause with a
		// well-formed request: removing an edge that is not there.
		case errors.Is(err, graph.ErrEdgeNotFound):
			h.badRequest(w, "%v", err)
		// A coordinator that could not two-phase publish to every worker
		// rolls the epoch back and reports worker loss (503): the update
		// is safe to retry once the cluster heals.
		case !h.unavailable(w, err):
			h.internalError(w, err)
		}
		return
	}
	h.state.Store(newEngineState(engine))
	h.invalidateCache(stats)
	h.countUpdate(1, stats, applied)
	writeJSON(w, updateResponse{
		Epoch:         stats.Epoch,
		Nodes:         engine.N(),
		EdgesAdded:    stats.EdgesAdded,
		EdgesRemoved:  stats.EdgesRemoved,
		NodesAdded:    stats.NodesAdded,
		ShardsRebuilt: stats.ShardsRebuilt,
		Repartitioned: stats.Repartitioned,
		FullRebuild:   stats.FullRebuild,
		ApplyMillis:   time.Since(t0).Milliseconds(),
	})
}

// buildDelta validates the request against the engine's node count and
// assembles the batch. Every failure here is a 400: nothing has been
// applied.
func buildDelta(n int, req *updateRequest) (*graph.Delta, error) {
	d := graph.NewDelta(n)
	for i := 0; i < req.AddNodes; i++ {
		d.AddNode()
	}
	for i, e := range req.AddEdges {
		if e.Weight == 0 {
			e.Weight = 1 // unweighted graphs omit the field
		}
		// Range and positive-weight validation live in Delta.AddEdge.
		if err := d.AddEdge(e.From, e.To, e.Weight); err != nil {
			return nil, fmt.Errorf("addEdges[%d]: %v", i, err)
		}
	}
	for i, e := range req.RemoveEdges {
		if err := d.RemoveEdge(e.From, e.To); err != nil {
			return nil, fmt.Errorf("removeEdges[%d]: %v", i, err)
		}
	}
	return d, nil
}
