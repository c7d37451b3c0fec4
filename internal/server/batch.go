package server

import (
	"context"
	"fmt"
	"net/http"
	"net/url"
	"strconv"

	"kdash/internal/core"
	"kdash/internal/topk"
)

// batchQueryJSON is one query of a POST /topk/batch request.
type batchQueryJSON struct {
	Q       int   `json:"q"`
	K       int   `json:"k"`
	Exclude []int `json:"exclude,omitempty"`
}

// batchQuery is one validated query of a batch: a query node, its
// answer-set size and its exclusion set (original node ids).
type batchQuery struct {
	Q       int
	K       int
	Exclude map[int]bool
}

// batchRequest is the POST /topk/batch payload.
type batchRequest struct {
	Queries []batchQueryJSON `json:"queries"`
}

// topKBatch handles POST /topk/batch:
//
//	{"queries":[{"q":3,"k":5},{"q":9,"k":5,"exclude":[9]}]}
//
// The whole batch is validated before any query executes — one bad entry
// fails the request with a 400 naming it — then the queries run one
// after the other through the engine's ordinary Search, the call /topk
// makes, so every item is bit-identical to the /topk answer for the
// same q, k and exclude by construction.
func (h *Handler) topKBatch(w http.ResponseWriter, r *http.Request, _ url.Values) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "use POST")
		return
	}
	h.qBatch.Add(1)
	st, _, ok := h.snapRead(w, r)
	if !ok {
		return
	}
	var req batchRequest
	if err := decodeBody(w, r, &req); err != nil {
		h.badRequest(w, "bad JSON: %v", err)
		return
	}
	if len(req.Queries) == 0 {
		h.badRequest(w, "empty batch")
		return
	}
	if len(req.Queries) > h.maxBatch {
		h.badRequest(w, "batch of %d exceeds limit %d", len(req.Queries), h.maxBatch)
		return
	}
	queries := make([]batchQuery, len(req.Queries))
	for i, bq := range req.Queries {
		if bq.Q < 0 || bq.Q >= st.engine.N() {
			h.badRequest(w, "query %d: node %d outside [0,%d)", i, bq.Q, st.engine.N())
			return
		}
		if bq.K <= 0 {
			h.badRequest(w, "query %d: k must be positive, got %d", i, bq.K)
			return
		}
		q := batchQuery{Q: bq.Q, K: bq.K}
		if len(bq.Exclude) > 0 {
			q.Exclude = make(map[int]bool, len(bq.Exclude))
			for _, node := range bq.Exclude {
				q.Exclude[node] = true
			}
		}
		queries[i] = q
	}
	h.qBatchQueries.Add(int64(len(queries)))

	results, stats, err := st.runBatch(r.Context(), queries)
	if err != nil {
		if !h.cancelled(w, err) && !h.unavailable(w, err) {
			h.internalError(w, err)
		}
		return
	}
	for i := range queries {
		h.countWork(stats[i])
	}
	buf := respBufs.Get().(*[]byte)
	*buf = appendBatch((*buf)[:0], queries, results, stats)
	writeBody(w, buf)
}

// appendBatch appends the /topk/batch body, trailing newline included,
// to b: the query count, one appendTopK item per query in request
// order, and the batch's summed work.
func appendBatch(b []byte, queries []batchQuery, results [][]topk.Result, stats []core.SearchStats) []byte {
	var visited, proxComps, terminated int64
	b = append(b, `{"count":`...)
	b = strconv.AppendInt(b, int64(len(queries)), 10)
	b = append(b, `,"items":[`...)
	for i, q := range queries {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendTopK(b, q.K, results[i], stats[i], false)
		b = b[:len(b)-1] // the item's newline
		visited += int64(stats[i].Visited)
		proxComps += int64(stats[i].ProximityComputations)
		if stats[i].Terminated {
			terminated++
		}
	}
	b = append(b, `],"stats":{"queries":`...)
	b = strconv.AppendInt(b, int64(len(queries)), 10)
	b = append(b, `,"visited":`...)
	b = strconv.AppendInt(b, visited, 10)
	b = append(b, `,"proximityComputations":`...)
	b = strconv.AppendInt(b, proxComps, 10)
	b = append(b, `,"terminatedEarly":`...)
	b = strconv.AppendInt(b, terminated, 10)
	return append(b, "}}\n"...)
}

// runBatch answers the validated queries in order, checking the
// request context between queries (each Search also checks it between
// its own solve steps) so a disconnected client stops paying for the
// rest of its batch. It is a method of the epoch snapshot, not the
// handler, so the whole batch runs against one engine even when an
// update lands mid-request.
//
//kdash:ctxloop
func (st *engineState) runBatch(ctx context.Context, queries []batchQuery) ([][]topk.Result, []core.SearchStats, error) {
	results := make([][]topk.Result, len(queries))
	stats := make([]core.SearchStats, len(queries))
	for i, bq := range queries {
		if err := ctx.Err(); err != nil {
			return nil, nil, fmt.Errorf("server: batch cancelled after %d of %d queries: %w", i, len(queries), err)
		}
		rs, s, err := st.engine.Search(bq.Q, core.SearchOptions{K: bq.K, Exclude: bq.Exclude, Ctx: ctx})
		if err != nil {
			return nil, nil, err
		}
		results[i], stats[i] = rs, s
	}
	return results, stats, nil
}
