package server

// POST /update: the dynamic-graph surface. The request body is one
// batch of mutations; the handler builds it against the staged node
// count and stages it, then either drains it itself and answers 200
// (no log) or answers 202 once the log append returns (see wal.go for
// the stage → drain pipeline). A drain atomically swaps the engine
// pointer to the successor epoch: in-flight queries loaded the old
// pointer and finish against the old (still fully valid) index —
// retiring it is free because epochs are immutable — while every
// request arriving after the swap sees the new one. The write path is
// single-writer by design; the read path never blocks on it.

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"

	"kdash/internal/graph"
	"kdash/internal/wal"
)

// MaxAddNodes bounds node insertions per /update request, so a single
// request cannot balloon the index arbitrarily.
const MaxAddNodes = 65536

// MaxEdgeOps bounds addEdges + removeEdges per /update request, and
// maxPostBody caps the request body read at all — together they keep
// one request from exhausting memory or monopolising the single-writer
// update lock with a multi-second apply.
const MaxEdgeOps = 65536

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
	if err := decodeBody(w, r, &req); err != nil {
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

	ws := h.wals
	if ws.log == nil {
		// The client waits out its own drain: one post at a time, so the
		// drain holds exactly this batch and publishes its own epoch.
		h.updateMu.Lock()
		defer h.updateMu.Unlock()
	}
	ws.mu.Lock()
	batch, err := buildDelta(ws.nextBaseN, &req)
	if err != nil {
		ws.mu.Unlock()
		h.badRequest(w, "%v", err)
		return
	}
	err = h.stageLocked(batch, ws.log)
	seq, epoch, pendingOps := ws.ackedSeq, h.snap().epoch, ws.pendingOps
	ws.mu.Unlock()
	if err != nil {
		h.updateFailed(w, err)
		return
	}

	if ws.log == nil {
		stats, applied, err := h.compactOnce()
		if err != nil {
			h.updateFailed(w, err)
			return
		}
		writeJSON(w, updateResponse{
			Epoch:         stats.Epoch,
			Nodes:         h.snap().engine.N(),
			EdgesAdded:    stats.EdgesAdded,
			EdgesRemoved:  stats.EdgesRemoved,
			NodesAdded:    stats.NodesAdded,
			ShardsRebuilt: stats.ShardsRebuilt,
			Repartitioned: stats.Repartitioned,
			FullRebuild:   stats.FullRebuild,
			ApplyMillis:   applied.Milliseconds(),
		})
		return
	}
	if pendingOps >= DefaultMaxPendingOps {
		ws.kickCompact()
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusAccepted)
	_ = json.NewEncoder(w).Encode(walUpdateResponse{
		Seq:          seq,
		Epoch:        epoch,
		EdgesAdded:   len(req.AddEdges),
		EdgesRemoved: len(req.RemoveEdges),
		NodesAdded:   req.AddNodes,
		PendingOps:   pendingOps,
		Durability:   ws.cfg.Sync == wal.SyncAlways,
	})
}

// walUpdateResponse is the 202 body a durable-mode /update ack carries:
// the WAL sequence number (the handle recovery and the read barrier key
// on), the epoch the batch will land on top of, and the memtable depth.
type walUpdateResponse struct {
	Seq          uint64 `json:"seq"`
	Epoch        int    `json:"epoch"` // published epoch at ack time; the batch lands in a later one
	EdgesAdded   int    `json:"edgesAdded"`
	EdgesRemoved int    `json:"edgesRemoved"`
	NodesAdded   int    `json:"nodesAdded"`
	PendingOps   int    `json:"pendingOps"`
	Durability   bool   `json:"fsynced"` // true only under the "always" policy
}

// updateFailed maps a batch that failed to stage or drain: a removal of
// an edge the virtual state lacks is the client's (400); an engine that
// lost index data — a coordinator that could not two-phase publish to
// every worker and rolled the epoch back, or a graph snapshot that
// failed to load — is 503, safe to retry; anything else (a log append,
// an engine fault) is 500.
func (h *Handler) updateFailed(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, graph.ErrEdgeNotFound):
		h.badRequest(w, "%v", err)
	case !h.unavailable(w, err):
		h.internalError(w, err)
	}
}

// buildDelta validates the request against node count n (the staged
// one, nextBaseN) and assembles the batch. Every failure here is a 400:
// nothing has been staged.
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
