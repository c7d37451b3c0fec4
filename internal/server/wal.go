package server

// Durable (WAL) update mode: the LSM-style write staging that turns
// POST /update from a ~hundreds-of-milliseconds synchronous
// refactorization into a microsecond log append.
//
//	ack:      validate -> encode -> WAL append -> memtable merge -> 202
//	drain:    background compactor folds the merged memtable through the
//	          engine's incremental ApplyDelta (one refactorization
//	          absorbs every batch queued since the last drain) and
//	          atomically publishes the successor epoch
//	read:     queries arriving after an ack wait on the epoch barrier
//	          until the compactor has published a state covering it, so
//	          answers are exact — bit-identical to a synchronous apply —
//	          never approximations over a stale engine
//	recover:  on start, records past the snapshot's manifest walSeq
//	          replay through the same ApplyDelta path
//
// Exactness is the design's anchor. The engine's Apply rebuilds dirty
// shards through the same deterministic per-shard build a from-scratch
// construction runs, so the published successor is bit-identical to a
// pinned-assignment rebuild — the refactorized mini-solve that answers
// for dirty shards. Queries therefore never consult the memtable
// directly: they wait (typically one compaction interval, bounded by
// their own context) for the exact successor instead of correcting
// against base factors with floating-point update formulas whose
// round-off would break bit-identity.
//
// Validation happens at ack time against the virtual post-memtable
// state — node ranges against the published node count plus pending
// insertions, removals against the published graph overlaid with
// pending edge ops — so a batch that would poison the queue is rejected
// with a 400 before it is ever logged, and the compactor's apply cannot
// fail on client input.

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"kdash/internal/core"
	"kdash/internal/graph"
	"kdash/internal/obs"
	"kdash/internal/wal"
)

// graphEngine exposes the engine's current graph snapshot; WAL mode
// requires it for ack-time edge-existence validation. Both updatable
// index shapes implement it.
type graphEngine interface{ Graph() *graph.Graph }

// walStamper is the snapshot seam: an engine that can stamp and persist
// the WAL position its factors cover (shard.ShardedIndex via manifest
// v4).
type walStamper interface {
	SetWALInfo(seq uint64, segments []string)
	Save(dir string) error
}

// WALConfig configures durable update mode (NewDurable).
type WALConfig struct {
	// Dir is the log directory (required).
	Dir string
	// Sync, SyncEvery, SegmentBytes pass through to wal.Options.
	Sync         wal.SyncPolicy
	SyncEvery    time.Duration
	SegmentBytes int64
	// CompactInterval is the compactor's tick: the longest an acked
	// batch waits before a drain starts absorbing it (default 25ms).
	// Readers blocked on the barrier kick the compactor immediately, so
	// the interval bounds staleness, not read latency.
	CompactInterval time.Duration
	// MaxPendingOps kicks a drain early once the memtable holds this
	// many edge ops (default 8192), bounding the biggest refactorization
	// one drain performs.
	MaxPendingOps int
	// SnapshotDir, when set, enables durable compaction: every
	// SnapshotEvery compactions the engine is persisted there (stamped
	// with the WAL position it covers, manifest v4) and the log is
	// truncated through that position. Requires an engine that persists
	// with a WAL stamp (the sharded index). Empty: the log is never
	// truncated — updates stay durable in the WAL alone.
	SnapshotDir string
	// SnapshotEvery is the compaction count between snapshots (default
	// 16 when SnapshotDir is set).
	SnapshotEvery int
}

// DefaultCompactInterval is the compactor tick when WALConfig leaves it
// zero.
const DefaultCompactInterval = 25 * time.Millisecond

// DefaultMaxPendingOps is the early-drain memtable bound when WALConfig
// leaves it zero.
const DefaultMaxPendingOps = 8192

// defaultSnapshotEvery is the snapshot cadence when SnapshotDir is set
// without an explicit SnapshotEvery.
const defaultSnapshotEvery = 16

// snapshotCurrent is the file inside SnapshotDir naming the snapshot
// directory recovery should load.
const snapshotCurrent = "CURRENT"

type edgeKey struct{ from, to int }

// walState is the handler's durable-mode machinery: the log, the
// memtable (one merged pending Delta), the ack/applied sequence pair
// the read barrier compares, and the edge-existence overlay ack-time
// validation consults.
type walState struct {
	log *wal.Log
	cfg WALConfig

	mu             sync.Mutex
	pending        *graph.Delta  // merged memtable; nil when drained
	pendingBatches int64         // client batches inside pending
	nextBaseN      int           // node count after everything acked
	ackedSeq       uint64        // last sequence number acked to a client
	appliedSeq     uint64        // last sequence number folded into the published engine
	published      chan struct{} // closed and replaced on every publish
	// exist overlays pending (and draining) edge ops on the published
	// graph: true = the edge exists after the acked ops, false = it was
	// removed. Keys absent from the map defer to the published graph.
	// The overlay stays valid across a publish — a drained op's effect
	// is then IN the published graph and agrees with its override — so
	// the post-publish rebuild (from pending alone) is garbage
	// collection, not a correctness step.
	exist   map[edgeKey]bool
	scratch []byte

	// Counters (under mu; /statz snapshots them wholesale).
	acked          int64 // batches acked
	compactions    int64 // drains that applied something
	applyErrors    int64 // drains whose Apply failed (dropped batches)
	batchesDropped int64 // client batches lost to apply errors
	replayed       int64 // records replayed at startup
	snapshots      int64 // snapshots persisted

	// barrierLat holds the waits of queries that found an acked batch
	// not yet applied (waitApplied); queries that sail through are not
	// observed.
	barrierLat obs.Histogram

	kick      chan struct{}
	stop      chan struct{}
	done      chan struct{}
	closeOnce sync.Once
}

// NewDurable wraps an engine like New but in durable update mode:
// POST /update acks after a WAL append, a background compactor folds
// batches through the engine's incremental apply, and records past the
// engine's manifest walSeq are replayed before the handler serves
// anything. The engine must be updatable with a reachable graph
// snapshot. Callers must Close the handler to stop the compactor and
// flush the log.
func NewDurable(engine Engine, cfg WALConfig, opts ...Option) (*Handler, error) {
	if cfg.Dir == "" {
		return nil, fmt.Errorf("server: WAL mode needs a log directory")
	}
	if cfg.CompactInterval <= 0 {
		cfg.CompactInterval = DefaultCompactInterval
	}
	if cfg.MaxPendingOps <= 0 {
		cfg.MaxPendingOps = DefaultMaxPendingOps
	}
	if cfg.SnapshotDir != "" && cfg.SnapshotEvery <= 0 {
		cfg.SnapshotEvery = defaultSnapshotEvery
	}
	upd, ok := engine.(Updatable)
	if !ok {
		return nil, fmt.Errorf("server: WAL mode needs an updatable engine, %T is static", engine)
	}
	ge, ok := engine.(graphEngine)
	if !ok || ge.Graph() == nil {
		return nil, fmt.Errorf("server: WAL mode needs an engine with a graph snapshot (%w)", core.ErrNotUpdatable)
	}
	log, err := wal.Open(cfg.Dir, wal.Options{Sync: cfg.Sync, SyncEvery: cfg.SyncEvery, SegmentBytes: cfg.SegmentBytes})
	if err != nil {
		return nil, err
	}

	// Recovery: replay records the engine's snapshot has not absorbed.
	after := uint64(0)
	if ws, ok := engine.(interface{ WALSeq() uint64 }); ok {
		after = ws.WALSeq()
	}
	engine, replayed, dropped, err := replayWAL(log, engine, upd, after)
	if err != nil {
		log.Close()
		return nil, err
	}

	h := New(engine, opts...)
	h.wals = &walState{
		log:            log,
		cfg:            cfg,
		nextBaseN:      engine.N(),
		ackedSeq:       log.LastSeq(),
		appliedSeq:     log.LastSeq(),
		published:      make(chan struct{}),
		exist:          make(map[edgeKey]bool),
		replayed:       replayed,
		batchesDropped: dropped,
		kick:           make(chan struct{}, 1),
		stop:           make(chan struct{}),
		done:           make(chan struct{}),
	}
	go h.compactLoop()
	return h, nil
}

// replayWAL folds every log record past `after` into the engine. The
// fast path merges all records into one delta and applies it in a
// single refactorization; if that fails (a record the snapshot already
// disagrees with — a batch the previous process dropped as poisoned),
// it falls back to record-by-record application, skipping the records
// that still fail, so one bad record cannot brick recovery.
//
// Replay is part of the bit-identity contract (recovered answers must
// match the synchronous-oracle chain exactly), so it must stay free of
// map iteration, clocks and randomness.
//
//kdash:deterministic
func replayWAL(log *wal.Log, engine Engine, upd Updatable, after uint64) (Engine, int64, int64, error) {
	var records []*graph.Delta
	if err := log.Replay(after, func(seq uint64, body []byte) error {
		d, err := graph.UnmarshalDelta(body)
		if err != nil {
			return fmt.Errorf("server: WAL record %d: %w", seq, err)
		}
		records = append(records, d)
		return nil
	}); err != nil {
		return nil, 0, 0, err
	}
	if len(records) == 0 {
		return engine, 0, 0, nil
	}
	merged := records[0]
	mergeable := true
	for _, d := range records[1:] {
		if err := merged.Extend(d); err != nil {
			mergeable = false
			break
		}
	}
	if mergeable && merged.BaseN() == engine.N() {
		if next, _, err := upd.ApplyDelta(merged); err == nil {
			return next.(Engine), int64(len(records)), 0, nil
		}
	}
	// Slow path: one at a time, skipping what cannot apply.
	var applied, dropped int64
	cur := engine
	curUpd := upd
	for _, d := range records {
		next, _, err := curUpd.ApplyDelta(d)
		if err != nil {
			dropped++
			continue
		}
		cur = next.(Engine)
		curUpd = next.(Updatable)
		applied++
	}
	return cur, applied, dropped, nil
}

// updateWAL is the durable-mode POST /update tail: validate against the
// virtual (post-memtable) state, append to the log, merge into the
// memtable, ack 202. Everything under ws.mu is microseconds — the lock
// also serialises writers, subsuming the sync path's updateMu role.
func (h *Handler) updateWAL(w http.ResponseWriter, req *updateRequest) {
	ws := h.wals
	ws.mu.Lock()
	// Snap inside the lock: the compactor publishes under the same lock,
	// so the engine and the exist overlay are always consistent here.
	st := h.snap()
	batch, err := buildDelta(ws.nextBaseN, req)
	if err != nil {
		ws.mu.Unlock()
		h.badRequest(w, "%v", err)
		return
	}
	if err := ws.validateLocked(batch, st.engine.(graphEngine).Graph()); err != nil {
		ws.mu.Unlock()
		h.badRequest(w, "%v", err)
		return
	}
	ws.scratch = batch.AppendBinary(ws.scratch[:0])
	seq, err := ws.log.Append(ws.scratch)
	if err != nil {
		ws.mu.Unlock()
		h.internalError(w, err)
		return
	}
	// Counted before the merge: the first batch of a drain BECOMES the
	// memtable, which later acks extend under this lock.
	added, removed, nodes := batch.Counts()
	if ws.pending == nil {
		ws.pending = batch
	} else if err := ws.pending.Extend(batch); err != nil {
		// Unreachable: batches are built against nextBaseN, which tracks
		// pending insertions exactly. Fail loudly rather than desync.
		ws.mu.Unlock()
		h.internalError(w, fmt.Errorf("server: memtable merge: %w", err))
		return
	}
	ws.recordExistLocked(batch)
	ws.ackedSeq = seq
	ws.nextBaseN += batch.AddedNodes()
	ws.acked++
	ws.pendingBatches++
	pendingOps := ws.pending.Len()
	epoch := st.epoch
	ws.mu.Unlock()

	if pendingOps >= ws.cfg.MaxPendingOps {
		ws.kickCompact()
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusAccepted)
	_ = json.NewEncoder(w).Encode(walUpdateResponse{
		Seq:          seq,
		Epoch:        epoch,
		EdgesAdded:   added,
		EdgesRemoved: removed,
		NodesAdded:   nodes,
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

// validateLocked rejects removals of edges that do not exist in the
// virtual state (published graph + acked pending ops + earlier ops of
// this very batch, in order — the same sequential semantics Apply
// enforces), so an acked batch can never fail the compactor's apply on
// client input.
func (ws *walState) validateLocked(batch *graph.Delta, g *graph.Graph) error {
	var local map[edgeKey]bool // overrides by this batch's earlier ops
	for _, e := range batch.Edges() {
		k := edgeKey{e.From, e.To}
		if e.Weight > 0 { // addition (Edges marks removals with weight 0)
			if local == nil {
				local = make(map[edgeKey]bool, batch.Len())
			}
			local[k] = true
			continue
		}
		exists, known := local[k]
		if !known {
			exists, known = ws.exist[k]
		}
		if !known {
			exists = g.HasEdge(e.From, e.To)
		}
		if !exists {
			return fmt.Errorf("removeEdges: edge (%d,%d): %w", e.From, e.To, graph.ErrEdgeNotFound)
		}
		if local == nil {
			local = make(map[edgeKey]bool, batch.Len())
		}
		local[k] = false
	}
	return nil
}

// recordExistLocked folds an acked batch's ops into the existence
// overlay.
func (ws *walState) recordExistLocked(batch *graph.Delta) {
	for _, e := range batch.Edges() {
		ws.exist[edgeKey{e.From, e.To}] = e.Weight > 0
	}
}

// rebuildExistLocked regenerates the overlay from the still-pending
// memtable after a publish (drained ops are now IN the published graph;
// their overrides were correct but are dead weight).
func (ws *walState) rebuildExistLocked() {
	clear(ws.exist)
	if ws.pending != nil {
		for _, e := range ws.pending.Edges() {
			ws.exist[edgeKey{e.From, e.To}] = e.Weight > 0
		}
	}
}

// kickCompact nudges the compactor without blocking.
func (ws *walState) kickCompact() {
	select {
	case ws.kick <- struct{}{}:
	default:
	}
}

// waitApplied is the read barrier: it returns once the published engine
// covers every sequence number acked before the call, kicking the
// compactor rather than waiting out its tick. A cancelled context
// returns its error (the handler maps it to 499). Only a call that
// finds something pending reads the clock: it reports how long it
// waited and records that in barrierLat.
func (ws *walState) waitApplied(ctx context.Context) (waited time.Duration, err error) {
	var t0 time.Time // set once something is found pending
	for err == nil {
		ws.mu.Lock()
		target, applied, ch := ws.ackedSeq, ws.appliedSeq, ws.published
		ws.mu.Unlock()
		if applied >= target {
			break
		}
		if t0.IsZero() {
			t0 = time.Now()
		}
		ws.kickCompact()
		select {
		case <-ch:
		case <-ctx.Done():
			err = ctx.Err()
		}
	}
	if !t0.IsZero() {
		waited = time.Since(t0)
		ws.barrierLat.Observe(waited)
	}
	return waited, err
}

// compactLoop is the single compactor goroutine: drain on the tick, on
// a kick (memtable pressure or a blocked reader), and once more on
// shutdown.
//
// The loop's only nondeterminism is WHEN a drain runs, never what it
// produces: each drain applies the merged pending batch through the
// engine's deterministic incremental apply, so any drain schedule
// converges to the same bit-identical engine state.
func (h *Handler) compactLoop() {
	ws := h.wals
	defer close(ws.done)
	t := time.NewTicker(ws.cfg.CompactInterval)
	defer t.Stop()
	for {
		select {
		case <-ws.stop:
			h.compactOnce()
			return
		case <-ws.kick:
			h.compactOnce()
		case <-t.C:
			h.compactOnce()
		}
	}
}

// compactOnce drains the memtable: swap it out, apply it through the
// engine (the expensive refactorization, outside the lock — acks keep
// flowing meanwhile), then publish engine + appliedSeq + barrier
// atomically under the lock.
//
// A drain's output must depend only on the batch it swapped out, never
// on when the schedule ran it — that is what makes any drain schedule
// converge to the same bit-identical engine state.
//
//kdash:deterministic
func (h *Handler) compactOnce() {
	ws := h.wals
	ws.mu.Lock()
	if ws.pending == nil || ws.pending.Empty() {
		ws.mu.Unlock()
		return
	}
	batch := ws.pending
	batches := ws.pendingBatches
	seq := ws.ackedSeq
	ws.pending = nil
	ws.pendingBatches = 0
	ws.mu.Unlock()

	st := h.snap()
	t0 := time.Now() //kdash:allow(determinism) times the apply for /metrics; the drain's output never reads it
	next, stats, err := st.upd.ApplyDelta(batch)
	applied := time.Since(t0) //kdash:allow(determinism) as above

	ws.mu.Lock()
	if err != nil {
		// Ack-time validation makes this unreachable for client input; a
		// failure here is an engine bug or resource exhaustion. The batch
		// is dropped (it stays in the WAL for post-mortem) and appliedSeq
		// still advances so readers do not hang forever on a barrier no
		// publish will ever satisfy.
		ws.applyErrors++
		ws.batchesDropped += batches
	} else {
		engine := next.(Engine)
		h.state.Store(newEngineState(engine, stats.Epoch))
		h.invalidateCache(stats)
		h.countUpdate(batches, stats, applied)
		ws.compactions++
	}
	ws.appliedSeq = seq
	ws.rebuildExistLocked()
	close(ws.published)
	ws.published = make(chan struct{})
	snapDue := err == nil && ws.cfg.SnapshotDir != "" && ws.compactions%int64(ws.cfg.SnapshotEvery) == 0
	ws.mu.Unlock()

	if snapDue {
		// Best-effort: a failed snapshot leaves the log untruncated, which
		// costs disk, not correctness.
		_ = h.SnapshotWAL(ws.cfg.SnapshotDir)
	}
	// The old epoch's dirty shards and the rebuild's transients just
	// became garbage, tens of MB at once against a heap that otherwise
	// grows by a few KB per query — so the pacer would let two or three
	// applies' worth pile up before it collects. Collect now, off the
	// readers' path: the publish above released them, and a heap of
	// pointer-free factor arrays marks in a couple of milliseconds.
	// Re-measured with loaded shard containers off the Go heap (8
	// interleaved update_stream_wal pairs, 2 cores): without this call
	// peak_rss_mb read 212.5 against 169.5 (+25 %, 8/8 pairs, past the
	// benchmark's 15 % bound) at unchanged goodput (2,907 vs 2,985
	// rps), so it stays.
	runtime.GC()
}

// SnapshotWAL persists the currently published engine into dir/epoch-N
// stamped with the WAL position it covers (manifest v4), points
// dir/CURRENT at it, prunes older snapshot directories, and truncates
// the log through the stamped position. Requires durable mode and an
// engine that persists with a WAL stamp (the sharded index).
func (h *Handler) SnapshotWAL(dir string) error {
	ws := h.wals
	if ws == nil {
		return fmt.Errorf("server: not in WAL mode")
	}
	// Engine and appliedSeq must be captured together: publishes update
	// both under ws.mu, so this pairing is exact — the stamp never
	// claims coverage the saved factors do not have.
	ws.mu.Lock()
	st := h.snap()
	applied := ws.appliedSeq
	ws.mu.Unlock()
	stamper, ok := st.engine.(walStamper)
	if !ok {
		return fmt.Errorf("server: engine %T cannot persist a WAL-stamped snapshot", st.engine)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	name := fmt.Sprintf("epoch-%08d", st.epoch)
	stamper.SetWALInfo(applied, ws.log.SegmentNames())
	if err := stamper.Save(filepath.Join(dir, name)); err != nil {
		return err
	}
	// Point CURRENT at the new snapshot atomically (write + rename), so
	// a crash mid-snapshot leaves the previous pointer intact.
	tmp := filepath.Join(dir, snapshotCurrent+".tmp")
	if err := os.WriteFile(tmp, []byte(name+"\n"), 0o644); err != nil {
		return err
	}
	if err := os.Rename(tmp, filepath.Join(dir, snapshotCurrent)); err != nil {
		return err
	}
	// Older snapshots are now unreachable; prune them. In-flight readers
	// of their mmapped files are safe on platforms where unlink keeps
	// open mappings alive.
	if entries, err := os.ReadDir(dir); err == nil {
		for _, e := range entries {
			if e.IsDir() && e.Name() != name && len(e.Name()) > 6 && e.Name()[:6] == "epoch-" {
				os.RemoveAll(filepath.Join(dir, e.Name()))
			}
		}
	}
	ws.mu.Lock()
	ws.snapshots++
	ws.mu.Unlock()
	return ws.log.TruncateThrough(applied)
}

// LatestSnapshot resolves a snapshot directory's CURRENT pointer to the
// index directory recovery should load, reporting ok=false when dir
// holds no (complete) snapshot.
func LatestSnapshot(dir string) (string, bool) {
	blob, err := os.ReadFile(filepath.Join(dir, snapshotCurrent))
	if err != nil {
		return "", false
	}
	name := string(blob)
	for len(name) > 0 && (name[len(name)-1] == '\n' || name[len(name)-1] == '\r') {
		name = name[:len(name)-1]
	}
	if name == "" || name != filepath.Base(name) {
		return "", false
	}
	path := filepath.Join(dir, name)
	if fi, err := os.Stat(path); err != nil || !fi.IsDir() {
		return "", false
	}
	return path, true
}

// invalidateCache drops exactly the cached answers an update could have
// changed. An entry survives iff its push solved no dirty shard. The
// push picks shards and terminates from pending residual mass alone,
// and only solved shards' factors and cut lists feed that mass — so a
// dirty shard that was merely pruned (it received sub-tolerance
// residual and was never solved) cannot alter the trajectory: under
// the new epoch the push solves the same clean shards, which the
// successor shares by pointer, in the same order to the same bits, and
// serving the cached list is exact. Anything that breaks the
// argument's premises (full rebuild, repartition moving homes and
// re-targeting every cut list, node insertions, an engine that reports
// no shard structure) flushes everything.
func (h *Handler) invalidateCache(stats core.UpdateStats) {
	if h.cache == nil {
		return
	}
	if stats.FullRebuild || stats.Repartitioned || stats.NodesAdded > 0 || len(stats.DirtyShards) == 0 {
		h.cache.flush(stats.Epoch)
		return
	}
	dirty := make(map[int]bool, len(stats.DirtyShards))
	for _, si := range stats.DirtyShards {
		dirty[si] = true
	}
	h.cache.retain(stats.Epoch, dirty)
}

// walStatz is the /statz "wal" block. It also returns the engine
// snapshot paired with it: the compactor publishes the new engine and
// advances compactions/appliedSeq/pendingOps inside one ws.mu critical
// section, so only a capture of both under that same lock yields a
// consistent /statz document — snapshotting the engine first and the
// WAL fields later can report a drained memtable (pendingOps 0,
// compactions advanced) against the pre-publish epoch, which reads as
// a lost update to anyone cross-checking epoch against compactions.
func (h *Handler) walStatz() (map[string]interface{}, *engineState) {
	ws := h.wals
	ws.mu.Lock()
	st := h.snap()
	doc := map[string]interface{}{
		"ackedSeq":        ws.ackedSeq,
		"appliedSeq":      ws.appliedSeq,
		"pendingOps":      0,
		"pendingBatches":  ws.pendingBatches,
		"acked":           ws.acked,
		"compactions":     ws.compactions,
		"applyErrors":     ws.applyErrors,
		"batchesDropped":  ws.batchesDropped,
		"replayedRecords": ws.replayed,
		"snapshots":       ws.snapshots,
		"fsyncPolicy":     ws.cfg.Sync.String(),
	}
	waits := ws.barrierLat.Snapshot()
	doc["barrierWaits"] = waits.Count
	doc["barrierWaitNs"] = waits.SumNS
	if ws.pending != nil {
		doc["pendingOps"] = ws.pending.Len()
	}
	ws.mu.Unlock()
	ls := ws.log.Stats()
	doc["lastSeq"] = ls.LastSeq
	doc["segments"] = ls.Segments
	doc["bytes"] = ls.Bytes
	doc["appends"] = ls.Appends
	doc["fsyncs"] = ls.Fsyncs
	doc["rotations"] = ls.Rotations
	doc["tornBytesDropped"] = ls.TornBytesDropped
	doc["segmentsCorrupt"] = ls.SegmentsCorrupt
	return doc, st
}

// Close stops the compactor (draining the memtable once more) and
// closes the log. A no-op outside WAL mode; safe to call once.
func (h *Handler) Close() error {
	ws := h.wals
	if ws == nil {
		return nil
	}
	var closeErr error
	ws.closeOnce.Do(func() {
		close(ws.stop)
		<-ws.done
		closeErr = ws.log.Close()
	})
	return closeErr
}
