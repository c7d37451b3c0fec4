// Package server exposes a K-dash index over HTTP, the deployment shape
// the paper's motivating applications (recommenders, link prediction,
// image captioning) consume proximity queries in: build or load the index
// once, then serve exact top-k answers at microsecond latency. The
// engine is the sharded shape behind the shard.Engine interface: a
// shard.ShardedIndex in process, or a placement.Coordinator routing the
// factor solves to workers.
//
// The handler validates requests before they reach the engine and maps
// failures precisely: malformed input is 400, engine failures and
// recovered panics are 500, and both are counted separately in /statz so
// operators can tell client noise from server trouble.
//
// /statz is the single observability surface: query/error/panic
// counters, per-query work, update and cache statistics, how the index
// was brought up (WithOpenInfo: open wall clock and mode), a
// memory block (the OS resident set, index arrays by backing, the Go
// heap; memory.go), a runtime block (scheduler latency, GC pause
// time), and the engine's own typed shard.Statz document —
// per-shard sizes and solves, which shard files traffic has actually
// opened, and a coordinator's per-worker stats. The field-by-field
// reference lives in README.md's Operations section;
// docs/ARCHITECTURE.md covers the epoch-swap contract POST /update
// relies on.
package server

import (
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"log/slog"
	"math"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"kdash/internal/core"
	"kdash/internal/obs"
	"kdash/internal/rpc"
	"kdash/internal/shard"
	"kdash/internal/topk"
)

// DefaultMaxBatch bounds /topk/batch request sizes: large enough for any
// sane fan-out, small enough that one request cannot monopolise the
// process.
const DefaultMaxBatch = 1024

// Option configures a Handler.
type Option func(*Handler)

// WithCache enables an LRU cache of exact /topk answers with the given
// capacity (entries; <= 0 leaves caching off). Hot repeated query nodes
// — the skewed access pattern recommender traffic has — are answered
// from the cached top-K list instead of re-running the engine; a miss
// is the engine's ordinary pruned search, asked for a list deep enough
// (cachedK) that later requests for the node are prefixes of it. An
// entry is about 1 KB whatever the graph's size.
func WithCache(entries int) Option {
	return func(h *Handler) {
		if entries > 0 {
			h.cache = newAnswerCache(entries)
		}
	}
}

// WithMaxBatch overrides the /topk/batch size limit (default
// DefaultMaxBatch); <= 0 keeps the default.
func WithMaxBatch(n int) Option {
	return func(h *Handler) {
		if n > 0 {
			h.maxBatch = n
		}
	}
}

// WithOpenInfo records how the serving index was brought up — wall
// clock of the open, and the mode ("parse", "coordinator") — for the
// /statz "load" block, so operators can see cold-start cost without
// scraping process logs.
func WithOpenInfo(d time.Duration, mode string) Option {
	return func(h *Handler) {
		h.openTime = d
		h.openMode = mode
	}
}

// WithRequestLog enables structured request logging: one line per
// completed request (endpoint, status, latency, trace id) through the
// given logger. A nil logger leaves logging off.
func WithRequestLog(l *slog.Logger) Option {
	return func(h *Handler) { h.logger = l }
}

// WithDefaultTimeout bounds every request's context by d (<= 0 leaves
// requests unbounded). A per-request ?budget=<duration> overrides it
// either way; a query that exhausts its budget mid-solve answers 499
// and counts toward kdash_queries_cancelled_total.
func WithDefaultTimeout(d time.Duration) Option {
	return func(h *Handler) {
		if d > 0 {
			h.defaultTimeout = d
		}
	}
}

// engineState is one immutable epoch of the serving engine. Every
// request loads the pointer exactly once and runs entirely against that
// snapshot, so an update swapping the pointer mid-flight never hands a
// request two different indexes — the copy-on-swap epoch scheme that
// makes POST /update safe against pooled in-flight queries.
type engineState struct {
	engine shard.Engine
	epoch  int
}

func newEngineState(engine shard.Engine) *engineState {
	return &engineState{engine: engine, epoch: engine.Epoch()}
}

// Handler serves queries against one engine.
type Handler struct {
	state          atomic.Pointer[engineState]
	updateMu       sync.Mutex // serialises synchronous /update posts (no log)
	mux            *http.ServeMux
	start          time.Time
	maxBatch       int
	cache          *answerCache // nil: caching disabled
	openTime       time.Duration
	openMode       string        // how the index was brought up (WithOpenInfo)
	logger         *slog.Logger  // nil: request logging off (WithRequestLog)
	wals           *walState     // the update pipeline (wal.go); its log is nil unless NewDurable set one
	defaultTimeout time.Duration // 0: requests unbounded (WithDefaultTimeout)

	// Request telemetry (obs.go): per-endpoint latency histograms and
	// status counters, the in-flight gauge, and the pooled trace
	// recorders ?trace=1 requests borrow.
	endpoints map[string]*endpointMetrics
	inFlight  atomic.Int64
	tracePool sync.Pool

	// Cumulative counters, expvar-backed so they are atomic and cheap on
	// the hot path. They are per-handler (not globally published): tests
	// and multi-index processes may hold several handlers.
	qTopK         expvar.Int
	qPers         expvar.Int
	qProx         expvar.Int
	qBatch        expvar.Int // /topk/batch requests
	qBatchQueries expvar.Int // queries inside those requests
	qBadRequest   expvar.Int // 400s: client-side input problems
	qInternal     expvar.Int // 500s: engine failures and panics
	qPanics       expvar.Int // recovered panics (also counted in qInternal)
	qCancelled    expvar.Int // 499s: client went away mid-solve
	qUnavailable  expvar.Int // 503s: a coordinator lost a worker mid-query
	visited       expvar.Int
	proxComps     expvar.Int
	terminated    expvar.Int
	cacheHits     expvar.Int
	cacheMisses   expvar.Int

	// Update-path counters.
	qUpdates   expvar.Int // /update requests accepted and applied
	updShards  expvar.Int // cumulative shards refactorized by updates
	updReparts expvar.Int // updates that triggered a re-partition
	updEdges   expvar.Int // cumulative edge ops applied
	updNodes   expvar.Int // cumulative nodes inserted
	// Rebuild reuse: rebuilt shards that kept their communities, and
	// the rebuilt blocks' inverse columns copied from the previous
	// epoch and solved.
	updCommunities expvar.Int
	updColsReused  expvar.Int
	updColsSolved  expvar.Int

	// Update-path timing (countUpdate): how long each engine apply ran —
	// in WAL mode that is the stall a reader sees after an ack — and
	// where the time went, cumulative per stage in updateStages order.
	applyLat   obs.Histogram
	updStageNs [len(updateStages)]expvar.Int
}

// updateStages are the stages an update's time is attributed to: the
// name /metrics and /statz report each under and where its time comes
// from.
var updateStages = [...]struct {
	name string
	time func(shard.UpdateStats) time.Duration
}{
	{"graph", func(s shard.UpdateStats) time.Duration { return s.GraphTime }},
	{"reorder", func(s shard.UpdateStats) time.Duration { return s.ReorderTime }},
	{"factorize", func(s shard.UpdateStats) time.Duration { return s.FactorizeTime }},
	{"invert", func(s shard.UpdateStats) time.Duration { return s.InvertTime }},
}

// countUpdate folds one engine apply — the sync path's single batch or
// a compaction's merged ones — into the cumulative update counters.
func (h *Handler) countUpdate(batches int64, stats shard.UpdateStats, applied time.Duration) {
	h.qUpdates.Add(batches)
	h.updShards.Add(int64(stats.ShardsRebuilt))
	h.updEdges.Add(int64(stats.EdgesAdded + stats.EdgesRemoved))
	h.updNodes.Add(int64(stats.NodesAdded))
	h.updCommunities.Add(int64(stats.CommunitiesReused))
	h.updColsReused.Add(int64(stats.ColumnsReused))
	h.updColsSolved.Add(int64(stats.ColumnsSolved))
	if stats.Repartitioned {
		h.updReparts.Add(1)
	}
	h.applyLat.Observe(applied)
	for i, stage := range updateStages {
		h.updStageNs[i].Add(int64(stage.time(stats)))
	}
}

// New wraps an engine in an http.Handler. The engine must not be modified
// afterwards (indexes are immutable after construction, so this is the
// natural usage); POST /update replaces the engine with a successor
// epoch rather than mutating it. The served epoch starts at the
// engine's own, so a server started from a saved, previously updated
// index reports that index's real epoch, not 0.
func New(engine shard.Engine, opts ...Option) *Handler {
	h := &Handler{mux: http.NewServeMux(), start: time.Now(), maxBatch: DefaultMaxBatch}
	h.wals = &walState{nextBaseN: engine.N(), published: make(chan struct{}), exist: make(map[edgeKey]bool)}
	h.state.Store(newEngineState(engine))
	for _, o := range opts {
		o(h)
	}
	h.endpoints = make(map[string]*endpointMetrics, len(endpointNames))
	for _, name := range endpointNames {
		h.endpoints[name] = &endpointMetrics{}
	}
	for _, ep := range []struct {
		path, name string
		fn         endpoint
	}{
		{"/topk", "topk", h.topK},
		{"/topk/batch", "batch", h.topKBatch},
		{"/personalized", "personalized", h.personalized},
		{"/proximity", "proximity", h.proximity},
		{"/update", "update", h.update},
		{"/healthz", "healthz", h.health},
		{"/statz", "statz", h.statz},
		{"/metrics", "metrics", h.metrics},
	} {
		h.mux.HandleFunc(ep.path, h.instrument(ep.name, ep.fn))
	}
	return h
}

// snap returns the current engine epoch. Handlers call it exactly once
// per request and thread the snapshot through, never re-loading.
func (h *Handler) snap() *engineState { return h.state.Load() }

// snapRead is the query-path snapshot: in durable (WAL) mode it first
// waits on the read barrier until the published engine covers every
// update acked before this request arrived — the read-your-writes
// guarantee that keeps WAL-mode answers exact (bit-identical to
// synchronous applies) rather than stale. The false return means the
// error has been written: a 499 when the request's context expired
// while waiting, a 503 when a failed drain holds the acked updates for
// its retry.
// waited is the time spent on the barrier (zero when nothing was
// pending), for the ?trace=1 block.
func (h *Handler) snapRead(w http.ResponseWriter, r *http.Request) (st *engineState, waited time.Duration, ok bool) {
	if h.wals.log != nil {
		var err error
		if waited, err = h.wals.waitApplied(r.Context()); err != nil {
			if !h.cancelled(w, err) {
				h.unavailable(w, err)
			}
			return nil, waited, false
		}
	}
	return h.snap(), waited, true
}

// ServeHTTP implements http.Handler. A panic anywhere below — the shard
// solve path asserts internal invariants with panics — is recovered into
// a 500 and counted, instead of killing the connection with no response.
// (If the handler had already started writing a body, the error document
// is appended best-effort; the status line is gone either way, but the
// connection and the process survive.)
func (h *Handler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	defer func() {
		if rec := recover(); rec != nil {
			h.qPanics.Add(1)
			h.qInternal.Add(1)
			httpError(w, http.StatusInternalServerError, fmt.Sprintf("internal error: %v", rec))
		}
	}()
	h.mux.ServeHTTP(w, r)
}

// countWork folds a successful query's per-query work into the
// cumulative counters.
func (h *Handler) countWork(stats core.SearchStats) {
	h.visited.Add(int64(stats.Visited))
	h.proxComps.Add(int64(stats.ProximityComputations))
	if stats.Terminated {
		h.terminated.Add(1)
	}
}

// maxPostBody caps every POST body the server reads (/update,
// /topk/batch, /personalized): it comfortably fits MaxEdgeOps JSON edge
// ops (~64 bytes each) plus slack, and a DefaultMaxBatch batch many
// times over.
const maxPostBody = 8 << 20

// decodeBody decodes r's JSON body into v, reading at most maxPostBody
// bytes: an over-cap body is a decode error, which the caller answers
// with badRequest.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) error {
	return json.NewDecoder(http.MaxBytesReader(w, r.Body, maxPostBody)).Decode(v)
}

// badRequest reports a client-side input problem (HTTP 400).
func (h *Handler) badRequest(w http.ResponseWriter, format string, args ...interface{}) {
	h.qBadRequest.Add(1)
	httpError(w, http.StatusBadRequest, fmt.Sprintf(format, args...))
}

// internalError reports an engine-side failure (HTTP 500). Requests are
// fully validated before they reach the engine, so anything the engine
// still rejects is a server problem, not the client's.
func (h *Handler) internalError(w http.ResponseWriter, err error) {
	h.qInternal.Add(1)
	httpError(w, http.StatusInternalServerError, err.Error())
}

// unavailable maps a query abandoned for want of index data — a
// coordinator's lost worker (rpc.ErrUnavailable), or a lazily opened
// shard file or graph snapshot that failed to load mid-query
// (core.ErrUnavailable) — to HTTP 503 with a Retry-After hint, reporting
// whether it handled the error. The engines' contract is exact or
// nothing: such a query yields one of these typed errors and no partial
// answer, so the honest HTTP translation is "retry shortly", never a
// wrong body or a generic 500.
func (h *Handler) unavailable(w http.ResponseWriter, err error) bool {
	if !errors.Is(err, rpc.ErrUnavailable) && !errors.Is(err, core.ErrUnavailable) {
		return false
	}
	h.qUnavailable.Add(1)
	w.Header().Set("Retry-After", "1")
	httpError(w, http.StatusServiceUnavailable, err.Error())
	return true
}

// nodeParam parses query parameter name as a node id and range-checks it
// against the request's engine snapshot.
func nodeParam(query url.Values, name string, n int) (int, error) {
	v, err := intParam(query, name)
	if err != nil {
		return 0, err
	}
	if v < 0 || v >= n {
		return 0, fmt.Errorf("node %q = %d outside [0,%d)", name, v, n)
	}
	return v, nil
}

// parseExclude parses a comma-separated exclusion list. Out-of-range ids
// are allowed (excluding a nonexistent node is harmless); non-numeric
// ones are not.
func parseExclude(raw string) (map[int]bool, error) {
	if raw == "" {
		return nil, nil
	}
	exclude := map[int]bool{}
	for _, part := range splitComma(raw) {
		node, err := strconv.Atoi(part)
		if err != nil {
			return nil, fmt.Errorf("bad exclude id %q", part)
		}
		exclude[node] = true
	}
	return exclude, nil
}

// topK handles GET /topk?q=<node>&k=<count>[&exclude=1,2,3].
func (h *Handler) topK(w http.ResponseWriter, r *http.Request, query url.Values) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	h.qTopK.Add(1)
	st, waited, ok := h.snapRead(w, r)
	if !ok {
		return
	}
	q, err := nodeParam(query, "q", st.engine.N())
	if err != nil {
		h.badRequest(w, "%v", err)
		return
	}
	k, err := intParam(query, "k")
	if err != nil {
		h.badRequest(w, "%v", err)
		return
	}
	if k <= 0 {
		h.badRequest(w, "k must be positive, got %d", k)
		return
	}
	exclude, err := parseExclude(query.Get("exclude"))
	if err != nil {
		h.badRequest(w, "%v", err)
		return
	}
	opt := core.SearchOptions{K: k, Exclude: exclude, Ctx: r.Context()}
	var tr *obs.QueryTrace
	if wantTrace(r, query) {
		tr = h.getTrace()
		defer h.putTrace(tr)
		tr.BarrierWaitNS = waited.Nanoseconds()
		opt.Trace = tr
	}
	// A request needing a deeper list than maxCachedK runs exactly as
	// with no cache; every other one is a single LRU lookup. An entry
	// that cannot prove the answer (too shallow for this k and exclusion
	// set) counts as a miss and is refilled deeper.
	var fill *cacheEntry // non-nil on a miss: the entry the search below fills
	if h.cache != nil && k <= maxCachedK-len(exclude) {
		if e, ok := h.cache.get(q, st.epoch); ok {
			if results, ok := e.answer(k, exclude); ok {
				h.cacheHits.Add(1)
				if tr != nil {
					tr.CacheHit = true
				}
				writeResults(w, k, results, core.SearchStats{}, true, tr)
				return
			}
		}
		h.cacheMisses.Add(1)
		fill = &cacheEntry{q: q, k: max(cachedK, k+len(exclude))}
		opt.K, opt.Exclude, opt.SolvedShards = fill.k, nil, &fill.shards
	}
	results, stats, err := st.engine.Search(q, opt)
	if err != nil {
		if !h.cancelled(w, err) && !h.unavailable(w, err) {
			h.internalError(w, err)
		}
		return
	}
	h.countWork(stats)
	if fill != nil {
		fill.results = results
		h.cache.put(fill, st.epoch)
		results, _ = fill.answer(k, exclude)
	}
	writeResults(w, k, results, stats, false, tr)
}

// personalizedRequest is the POST /personalized payload.
type personalizedRequest struct {
	Seeds map[string]float64 `json:"seeds"` // node id (string) -> weight
	K     int                `json:"k"`
}

// personalized handles POST /personalized with a JSON body.
func (h *Handler) personalized(w http.ResponseWriter, r *http.Request, _ url.Values) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "use POST")
		return
	}
	h.qPers.Add(1)
	st, _, ok := h.snapRead(w, r)
	if !ok {
		return
	}
	var req personalizedRequest
	if err := decodeBody(w, r, &req); err != nil {
		h.badRequest(w, "bad JSON: %v", err)
		return
	}
	if req.K <= 0 {
		h.badRequest(w, "k must be positive, got %d", req.K)
		return
	}
	if len(req.Seeds) == 0 {
		h.badRequest(w, "empty seed set")
		return
	}
	seeds := make(map[int]float64, len(req.Seeds))
	for key, weight := range req.Seeds {
		node, err := strconv.Atoi(key)
		if err != nil {
			h.badRequest(w, "bad seed id %q", key)
			return
		}
		seeds[node] = weight
	}
	if _, _, err := shard.CheckSeeds(seeds, st.engine.N()); err != nil {
		h.badRequest(w, "%v", err)
		return
	}
	results, stats, err := st.engine.TopKPersonalizedContext(r.Context(), seeds, req.K)
	if err != nil {
		if !h.cancelled(w, err) && !h.unavailable(w, err) {
			h.internalError(w, err)
		}
		return
	}
	h.countWork(stats)
	writeResults(w, req.K, results, stats, false, nil)
}

// proximity handles GET /proximity?q=<node>&u=<node>.
func (h *Handler) proximity(w http.ResponseWriter, r *http.Request, query url.Values) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	h.qProx.Add(1)
	st, _, ok := h.snapRead(w, r)
	if !ok {
		return
	}
	q, err := nodeParam(query, "q", st.engine.N())
	if err != nil {
		h.badRequest(w, "%v", err)
		return
	}
	u, err := nodeParam(query, "u", st.engine.N())
	if err != nil {
		h.badRequest(w, "%v", err)
		return
	}
	p, err := st.engine.ProximityContext(r.Context(), q, u)
	if err != nil {
		if !h.cancelled(w, err) && !h.unavailable(w, err) {
			h.internalError(w, err)
		}
		return
	}
	writeJSON(w, map[string]float64{"proximity": p})
}

// health handles GET /healthz.
func (h *Handler) health(w http.ResponseWriter, r *http.Request, _ url.Values) {
	st := h.snap()
	writeJSON(w, map[string]interface{}{
		"status":  "ok",
		"nodes":   st.engine.N(),
		"restart": st.engine.Restart(),
		"epoch":   st.epoch,
		"build":   buildInfo(),
	})
}

// statz handles GET /statz: cumulative query counters plus the engine's
// own document (per-shard sizes, cut statistics and solves), so
// operators can watch shard balance and pruning effectiveness in
// production.
func (h *Handler) statz(w http.ResponseWriter, r *http.Request, _ url.Values) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	st, wc := h.walSnap()
	doc := map[string]interface{}{
		"uptimeSeconds": time.Since(h.start).Seconds(),
		"memory":        memoryStatz(st.engine.GraphBytes()),
		"runtime":       readRuntimeStats().statz(),
		"queries": map[string]int64{
			"topk":         h.qTopK.Value(),
			"personalized": h.qPers.Value(),
			"proximity":    h.qProx.Value(),
			"batch":        h.qBatch.Value(),
			"batchQueries": h.qBatchQueries.Value(),
			"errors":       h.qBadRequest.Value() + h.qInternal.Value(),
			"badRequest":   h.qBadRequest.Value(),
			"internal":     h.qInternal.Value(),
			"panics":       h.qPanics.Value(),
			"cancelled":    h.qCancelled.Value(),
			"unavailable":  h.qUnavailable.Value(),
			"inFlight":     h.inFlight.Load(), // includes this /statz request
		},
		"work": map[string]int64{
			"visited":               h.visited.Value(),
			"proximityComputations": h.proxComps.Value(),
			"terminatedEarly":       h.terminated.Value(),
		},
		"updates": h.updatesStatz(st.epoch),
		"index":   st.engine.Statz(),
	}
	if h.openMode != "" {
		doc["load"] = map[string]interface{}{
			"openSeconds": h.openTime.Seconds(),
			"mode":        h.openMode,
		}
	}
	if lat := h.latencyStatz(); len(lat) > 0 {
		doc["latency"] = lat
	}
	if h.cache != nil {
		entries, bytes, evictions := h.cache.stats()
		doc["cache"] = map[string]int64{
			"hits":      h.cacheHits.Value(),
			"misses":    h.cacheMisses.Value(),
			"entries":   int64(entries),
			"bytes":     bytes,
			"evictions": evictions,
		}
	}
	if h.wals.log != nil {
		doc["wal"] = h.walStatz(wc)
	}
	writeJSON(w, doc)
}

// updatesStatz is the /statz "updates" block: the update counters, then
// the engine applies' count and cumulative wall time, then where that
// time went — one <name>Ns key per updateStages entry.
func (h *Handler) updatesStatz(epoch int) map[string]int64 {
	applies := h.applyLat.Snapshot()
	doc := map[string]int64{
		"applied":           h.qUpdates.Value(),
		"epoch":             int64(epoch),
		"shardsRebuilt":     h.updShards.Value(),
		"repartitions":      h.updReparts.Value(),
		"edgeOps":           h.updEdges.Value(),
		"nodesAdded":        h.updNodes.Value(),
		"communitiesReused": h.updCommunities.Value(),
		"columnsReused":     h.updColsReused.Value(),
		"columnsSolved":     h.updColsSolved.Value(),
		"unsupported":       0, // kept for dashboards: every served engine takes updates
		"applies":           int64(applies.Count),
		"applyNs":           applies.SumNS,
	}
	for i, stage := range updateStages {
		doc[stage.name+"Ns"] = h.updStageNs[i].Value()
	}
	return doc
}

// latencyStatz summarises each endpoint's latency histogram for the
// /statz "latency" block: request count, mean and tail quantiles in
// microseconds. Endpoints that have served nothing are omitted.
func (h *Handler) latencyStatz() map[string]interface{} {
	lat := map[string]interface{}{}
	for _, name := range endpointNames {
		s := h.endpoints[name].lat.Snapshot()
		if s.Count == 0 {
			continue
		}
		lat[name] = map[string]interface{}{
			"count":      s.Count,
			"meanMicros": s.Mean() / 1e3,
			"p50Micros":  s.Quantile(0.5) / 1e3,
			"p99Micros":  s.Quantile(0.99) / 1e3,
			"p999Micros": s.Quantile(0.999) / 1e3,
		}
	}
	return lat
}

// respBufs recycles the buffers answer bodies are appended into.
var respBufs = sync.Pool{New: func() any { return new([]byte) }}

// jsonContentType is the Content-Type header value, shared: assigning
// it skips Header.Set's per-call slice, and nothing writes into a
// header's value slice in place.
var jsonContentType = []string{"application/json"}

// writeResults writes one answer set: appendTopK's body, appended into
// a pooled buffer. A traced query's body carries its trace block
// before the closing brace — obs.QueryTrace's own JSON encoding, taken
// before the handler returns the pooled recorder.
func writeResults(w http.ResponseWriter, requestedK int, results []topk.Result, stats core.SearchStats, cached bool, tr *obs.QueryTrace) {
	buf := respBufs.Get().(*[]byte)
	b := appendTopK((*buf)[:0], requestedK, results, stats, cached)
	if tr != nil {
		trace, err := json.Marshal(tr)
		if err != nil { // a non-finite float: the engine broke an invariant
			respBufs.Put(buf)
			httpError(w, http.StatusInternalServerError, fmt.Sprintf("encoding trace: %v", err))
			return
		}
		b = append(append(b[:len(b)-2], `,"trace":`...), trace...)
		b = append(b, "}\n"...)
	}
	*buf = b
	writeBody(w, buf)
}

// writeBody writes a JSON answer body appended into a pooled buffer
// and returns the buffer to respBufs.
func writeBody(w http.ResponseWriter, buf *[]byte) {
	w.Header()["Content-Type"] = jsonContentType
	_, _ = w.Write(*buf) // headers are sent; a failed write leaves nothing to do
	respBufs.Put(buf)
}

// appendTopK appends one answer set's body, trailing newline included,
// to b: the count returned as "k" (fewer than requestedK when the graph
// has fewer reachable answers, so clients can index results safely),
// the request's k, the ranked results, the query's work, and
// "cached":true on a cache hit.
func appendTopK(b []byte, requestedK int, results []topk.Result, stats core.SearchStats, cached bool) []byte {
	b = append(b, `{"k":`...)
	b = strconv.AppendInt(b, int64(len(results)), 10)
	b = append(b, `,"requestedK":`...)
	b = strconv.AppendInt(b, int64(requestedK), 10)
	b = append(b, `,"results":[`...)
	for i, r := range results {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"node":`...)
		b = strconv.AppendInt(b, int64(r.Node), 10)
		b = append(b, `,"score":`...)
		b = appendJSONFloat(b, r.Score)
		b = append(b, '}')
	}
	b = append(b, `],"stats":{"visited":`...)
	b = strconv.AppendInt(b, int64(stats.Visited), 10)
	b = append(b, `,"proximityComputations":`...)
	b = strconv.AppendInt(b, int64(stats.ProximityComputations), 10)
	b = append(b, `,"terminated":`...)
	b = strconv.AppendBool(b, stats.Terminated)
	b = append(b, '}')
	if cached {
		b = append(b, `,"cached":true`...)
	}
	return append(b, "}\n"...)
}

// appendJSONFloat appends a finite float64 as encoding/json formats it:
// the shortest round-trip digits, in exponent form below 1e-6 or from
// 1e21 up, with a one-digit negative exponent unpadded (e-7, not e-07).
func appendJSONFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

func intParam(query url.Values, name string) (int, error) {
	raw := query.Get(name)
	if raw == "" {
		return 0, fmt.Errorf("missing query parameter %q", name)
	}
	v, err := strconv.Atoi(raw)
	if err != nil {
		return 0, fmt.Errorf("bad query parameter %q: %v", name, err)
	}
	return v, nil
}

func splitComma(s string) []string {
	var out []string
	start := 0
	for i := 0; i <= len(s); i++ {
		if i == len(s) || s[i] == ',' {
			if i > start {
				out = append(out, s[start:i])
			}
			start = i + 1
		}
	}
	return out
}

func writeJSON(w http.ResponseWriter, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		// Headers already sent; nothing sensible left to do.
		return
	}
}

func httpError(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": msg})
}
