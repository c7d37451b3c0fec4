package server

// The update pipeline. Every batch — a live POST /update, a durable ack,
// a WAL record recovered at startup — takes the same two steps:
//
//	stage:    validate against the virtual state (the published engine
//	          plus everything staged before it), append to the log when
//	          there is one, and merge into the memtable
//	drain:    apply the memtable through the engine's incremental
//	          ApplyDelta (one refactorization absorbs every staged batch)
//	          and atomically publish the successor epoch
//
// Only the ack differs. Without a log (New) the client waits out its own
// drain and gets 200 with the apply's stats. With one (NewDurable) it
// gets 202 once the log append returns — microseconds, not an apply —
// and a background compactor drains:
//
//	read:     queries arriving after an ack wait on the epoch barrier
//	          until a drain has published a state covering it, so
//	          answers are exact — bit-identical to a synchronous apply —
//	          never approximations over a stale engine
//	recover:  on start, records past the snapshot's manifest walSeq are
//	          staged like live batches and drained once
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
// Because staging validates — node ranges against the published node
// count plus staged insertions, removals against the published graph
// overlaid with staged edge ops — a batch that would poison the
// memtable is rejected with a 400 before it is ever logged, and a drain
// cannot fail on client input. A drain that fails anyway (an engine
// fault: a coordinator's lost worker, resource exhaustion) loses no
// acked batch: with a log every staged batch was acked and logged, so it
// stays staged and the next drain retries it — the memtable and the log
// never disagree, and a restart recovers exactly what was served — while
// readers that would need it get 503 meanwhile. Without a log the one
// staged batch is the poster's own; it is dropped and the poster gets
// the error.

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"kdash/internal/core"
	"kdash/internal/graph"
	"kdash/internal/obs"
	"kdash/internal/shard"
	"kdash/internal/wal"
)

// WALConfig configures durable update mode (NewDurable).
type WALConfig struct {
	// Dir is the log directory (required).
	Dir string
	// Sync is the log's fsync policy (wal.Options.Sync); the flush
	// period and the segment size take wal's defaults.
	Sync wal.SyncPolicy
	// CompactInterval is the compactor's tick: the longest an acked
	// batch waits before a drain starts absorbing it (default 25ms).
	// Readers blocked on the barrier kick the compactor immediately, so
	// the interval bounds staleness, not read latency.
	CompactInterval time.Duration
	// SnapshotDir, when set, enables durable compaction: every
	// SnapshotEvery compactions the engine is persisted there (stamped
	// with the WAL position it covers in its manifest) and the log is
	// truncated through that position. A coordinator cannot snapshot
	// (it holds no factors). Empty: the log is never truncated —
	// updates stay durable in the WAL alone.
	SnapshotDir string
	// SnapshotEvery is the compaction count between snapshots (default
	// 16 when SnapshotDir is set).
	SnapshotEvery int
}

// DefaultCompactInterval is the compactor tick when WALConfig leaves it
// zero.
const DefaultCompactInterval = 25 * time.Millisecond

// DefaultMaxPendingOps kicks a drain early once the memtable holds
// this many edge ops, bounding the biggest refactorization one drain
// performs.
const DefaultMaxPendingOps = 8192

// defaultSnapshotEvery is the snapshot cadence when SnapshotDir is set
// without an explicit SnapshotEvery.
const defaultSnapshotEvery = 16

// snapshotCurrent is the file inside SnapshotDir naming the snapshot
// directory recovery should load.
const snapshotCurrent = "CURRENT"

type edgeKey struct{ from, to int }

// walState is the handler's update pipeline: the memtable, the virtual
// state staging validates against, the ack/applied sequence pair the
// read barrier compares, and — in durable mode — the log and the
// compactor. New installs it with a nil log.
type walState struct {
	log *wal.Log // nil: synchronous updates; set by NewDurable
	cfg WALConfig

	mu        sync.Mutex
	pending   *graph.Delta  // the memtable: every staged batch merged, oldest first; nil when empty
	nextBaseN int           // node count after everything staged
	published chan struct{} // closed and replaced after every drain
	drainErr  error         // the last drain's error while its batches wait for a retry
	// exist overlays the staged edge ops on the published graph: true =
	// the edge exists after them, false = it was removed. Keys absent
	// from the map defer to the published graph. Every drain rebuilds
	// it from the memtable it leaves, which bounds it to the pending ops.
	exist   map[edgeKey]bool
	scratch []byte
	walCounters

	// barrierLat holds the waits of queries that found an acked batch
	// not yet applied (waitApplied); queries that sail through are not
	// observed.
	barrierLat obs.Histogram

	kick      chan struct{}
	stop      chan struct{}
	done      chan struct{}
	closeOnce sync.Once
}

// walCounters are the pipeline's counters, under walState.mu; walSnap
// copies them whole, paired with the engine they describe.
type walCounters struct {
	ackedSeq       uint64 // last sequence number acked to a client
	appliedSeq     uint64 // last sequence number published or dropped
	pendingOps     int    // edge ops in the memtable
	pendingBatches int    // batches in the memtable
	acked          int64  // batches acked
	compactions    int64  // drains that published
	applyErrors    int64  // drains whose apply failed (with a log, retried)
	batchesDropped int64  // recovered records that no longer validate
	replayed       int64  // records staged at startup
	snapshots      int64  // snapshots persisted
}

// NewDurable wraps an engine like New but in durable update mode:
// POST /update acks after a WAL append, a background compactor drains
// the memtable, and records past the engine's manifest walSeq are
// staged — skipping, and counting in batchesDropped, any that no longer
// validates — and drained once before the handler serves anything. A
// failed recovery drain is returned as the error. The engine's graph
// snapshot must load: staging reads it. Callers must Close the handler
// to stop the compactor and flush the log.
func NewDurable(engine shard.Engine, cfg WALConfig, opts ...Option) (*Handler, error) {
	if cfg.Dir == "" {
		return nil, fmt.Errorf("server: WAL mode needs a log directory")
	}
	if cfg.CompactInterval <= 0 {
		cfg.CompactInterval = DefaultCompactInterval
	}
	if cfg.SnapshotDir != "" && cfg.SnapshotEvery <= 0 {
		cfg.SnapshotEvery = defaultSnapshotEvery
	}
	if engine.Graph() == nil {
		return nil, fmt.Errorf("server: WAL mode needs the engine's graph snapshot, which failed to load (%w)", core.ErrUnavailable)
	}
	log, err := wal.Open(cfg.Dir, wal.Options{Sync: cfg.Sync})
	if err != nil {
		return nil, err
	}

	h := New(engine, opts...)
	ws := h.wals
	ws.log, ws.cfg = log, cfg
	ws.kick, ws.stop, ws.done = make(chan struct{}, 1), make(chan struct{}), make(chan struct{})
	ws.mu.Lock()
	err = log.Replay(engine.WALSeq(), func(seq uint64, body []byte) error {
		d, err := graph.UnmarshalDelta(body)
		if err != nil {
			return fmt.Errorf("server: WAL record %d: %w", seq, err)
		}
		if h.stageLocked(d, nil) != nil {
			ws.batchesDropped++
		} else {
			ws.replayed++
		}
		return nil
	})
	ws.ackedSeq = log.LastSeq()
	ws.appliedSeq = ws.ackedSeq
	ws.mu.Unlock()
	if err == nil {
		_, _, err = h.compactOnce()
	}
	if err != nil {
		log.Close()
		return nil, err
	}
	go h.compactLoop()
	return h, nil
}

// stageLocked is the one way a batch enters the memtable — a live post,
// a durable ack and a recovered record. It validates the batch against the virtual state: its base
// node count against nextBaseN, then each removal against the existence
// overlay and the published graph, in op order (the sequential
// semantics Apply enforces, with this batch's earlier ops in force), so
// a staged batch can never fail a drain on its own content. A batch
// that passes is appended to log when one is given (the durable ack),
// and merged. The caller holds ws.mu.
//
// Recovery stages through here, and recovered answers must match the
// synchronous-oracle chain bit for bit, so it stays free of map
// iteration, clocks and randomness.
//
//kdash:deterministic
func (h *Handler) stageLocked(batch *graph.Delta, log *wal.Log) error {
	ws := h.wals
	if batch.BaseN() != ws.nextBaseN {
		return fmt.Errorf("server: batch built against %d nodes, %d staged", batch.BaseN(), ws.nextBaseN)
	}
	g := h.snap().engine.Graph()
	if g == nil {
		return fmt.Errorf("server: updates validate against the graph snapshot, which failed to load (%w)", core.ErrUnavailable)
	}
	edges := batch.Edges()
	var local map[edgeKey]bool // overrides by this batch's earlier ops
	for _, e := range edges {
		k := edgeKey{e.From, e.To}
		if e.Weight == 0 { // a removal (Edges marks them with weight 0)
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
		}
		if local == nil {
			local = make(map[edgeKey]bool, len(edges))
		}
		local[k] = e.Weight > 0
	}
	if log != nil {
		ws.scratch = batch.AppendBinary(ws.scratch[:0])
		seq, err := log.Append(ws.scratch)
		if err != nil {
			return err
		}
		ws.ackedSeq = seq
		ws.acked++
	}
	// The first batch of a drain becomes the memtable; later ones extend
	// it. Extend cannot fail: the batch's base matched nextBaseN, the
	// memtable's node count.
	if ws.pending == nil {
		ws.pending = batch
	} else if err := ws.pending.Extend(batch); err != nil {
		return err
	}
	for _, e := range edges {
		ws.exist[edgeKey{e.From, e.To}] = e.Weight > 0
	}
	ws.pendingOps += batch.Len()
	ws.pendingBatches++
	ws.nextBaseN += batch.AddedNodes()
	return nil
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
// returns its error (the handler maps it to 499); a drain that ends
// failed while the call's batches are still pending returns
// core.ErrUnavailable (503: exact or unavailable — the batches wait for
// the retry, the reader does not get an answer that omits them). Only a
// call that finds something pending reads the clock: it reports how
// long it waited and records that in barrierLat.
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
			ws.mu.Lock()
			if ws.appliedSeq < target && ws.drainErr != nil {
				err = fmt.Errorf("server: acked updates wait for a retried drain (%v): %w", ws.drainErr, core.ErrUnavailable)
			}
			ws.mu.Unlock()
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

// compactOnce drains the memtable: swap it out and apply it through the
// engine (the expensive refactorization, outside the lock — staging
// keeps flowing meanwhile), then publish the engine, appliedSeq and the
// barrier atomically under the lock. It reports the apply's stats and
// wall time, or the apply's error; an empty memtable is a no-op.
//
// Staging makes a failed apply unreachable for client input: it is an
// engine fault (a coordinator's lost worker, resource exhaustion), and
// the published engine is unchanged. With a log the swapped-out batches
// were acked and logged, so they go back in front of whatever was staged
// meanwhile and the next drain retries them. Without a log the memtable
// held only the failing poster's batch (updateMu), which answers with
// the error and is dropped.
//
// A drain's output must depend only on the batches it swapped out,
// never on when the schedule ran it — that is what makes any drain
// schedule converge to the same bit-identical engine state.
//
//kdash:deterministic
func (h *Handler) compactOnce() (stats shard.UpdateStats, applied time.Duration, err error) {
	ws := h.wals
	ws.mu.Lock()
	staged, batches, seq, st := ws.pending, ws.pendingBatches, ws.ackedSeq, h.snap()
	ws.pending, ws.pendingOps, ws.pendingBatches = nil, 0, 0
	ws.mu.Unlock()
	if staged == nil {
		return stats, 0, nil
	}

	// Collect before the apply allocates, so the apply reuses the
	// memory of what became garbage since the previous drain's
	// post-publish collection instead of growing the heap past it. No
	// epoch embeds a sync.Pool (push states sit on free lists), so no
	// pool keeps the retired epoch registered past that collection; what
	// this one frees is chiefly the serving path's own garbage, ~9 KB per /topk request
	// (BenchmarkTopKCacheMiss: 9,358 B/op), a few MB over the 500
	// queries between two updates of update_stream_wal. Re-measured
	// with compact-encoded factors (5 interleaved update_stream_wal
	// pairs, 2 cores): without this call peak_rss_mb read 75.9 against
	// 73.1 MB (+3.9 %, 5/5 pairs) while server CPU per request fell
	// from 123.0 to 111.4 µs (-9 %, 5/5) — the collection, ~2 ms, is
	// paid by the apply and by a reader waiting on the barrier. Peak RSS
	// is what the benchmark bounds, so it stays.
	runtime.GC()
	t0 := time.Now() //kdash:allow(determinism) times the apply for /metrics; the drain's output never reads it
	next, stats, err := st.engine.ApplyDelta(staged)
	applied = time.Since(t0) //kdash:allow(determinism) as above

	ws.mu.Lock()
	switch {
	case err == nil:
		h.state.Store(newEngineState(next))
		h.invalidateCache(stats)
		h.countUpdate(int64(batches), stats, applied)
		ws.compactions++
		ws.appliedSeq, ws.drainErr = seq, nil
	case ws.log != nil:
		ws.applyErrors++
		ws.drainErr = err
		if ws.pending != nil {
			_ = staged.Extend(ws.pending) // cannot fail: the later batches were staged on staged's node count
		}
		ws.pending = staged
		ws.pendingOps, ws.pendingBatches = staged.Len(), ws.pendingBatches+batches
	default:
		ws.applyErrors++
		ws.nextBaseN = st.engine.N()
	}
	clear(ws.exist)
	if ws.pending != nil {
		for _, e := range ws.pending.Edges() {
			ws.exist[edgeKey{e.From, e.To}] = e.Weight > 0
		}
	}
	close(ws.published)
	ws.published = make(chan struct{})
	snapDue := err == nil && ws.cfg.SnapshotDir != "" && ws.compactions%int64(ws.cfg.SnapshotEvery) == 0
	ws.mu.Unlock()

	if snapDue {
		// Best-effort: a failed snapshot leaves the log untruncated, which
		// costs disk, not correctness.
		_ = h.SnapshotWAL(ws.cfg.SnapshotDir)
	}
	// The rebuild's transients just became garbage, tens of MB at once
	// against a heap that otherwise grows by a few KB per query — so the
	// pacer would let two or three applies' worth pile up before it
	// collects. Collect now, off the readers' path (the old epoch the
	// publish above released goes at the next drain's first
	// collection, above): a heap of pointer-free factor arrays marks in
	// a couple of milliseconds.
	// Re-measured with loaded shard containers off the Go heap (8
	// interleaved update_stream_wal pairs, 2 cores): without this call
	// peak_rss_mb read 212.5 against 169.5 (+25 %, 8/8 pairs, past the
	// benchmark's 15 % bound) at unchanged goodput (2,907 vs 2,985
	// rps), so it stays.
	runtime.GC()
	return stats, applied, err
}

// SnapshotWAL persists the currently published engine into dir/epoch-N
// stamped in its manifest with the WAL position it covers, points
// dir/CURRENT at it, prunes older snapshot directories, and truncates
// the log through the stamped position. Requires durable mode and an
// in-process engine: a coordinator refuses (placement.ErrNoSnapshot).
func (h *Handler) SnapshotWAL(dir string) error {
	ws := h.wals
	if ws.log == nil {
		return fmt.Errorf("server: not in WAL mode")
	}
	// Engine and appliedSeq must be captured together (walSnap), so the
	// stamp never claims coverage the saved factors do not have.
	st, c := h.walSnap()
	applied := c.appliedSeq
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	name := fmt.Sprintf("epoch-%08d", st.epoch)
	if err := st.engine.SaveWALSnapshot(filepath.Join(dir, name), applied, ws.log.SegmentNames()); err != nil {
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
	// Older snapshots are now unreachable; prune them. A loaded index
	// serves from sealed copies of its shard files, not from the files,
	// so removing them pulls nothing out from under a reader.
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
// re-targeting every cut list, node insertions, an update that reports
// no dirty shards) flushes everything.
func (h *Handler) invalidateCache(stats shard.UpdateStats) {
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

// walSnap captures the published engine and the pipeline's counters
// under ws.mu, the lock every publish holds: a drain publishes the new
// engine and advances compactions, appliedSeq and pendingOps in one
// critical section, so only a capture of both under that same lock is
// consistent — snapshotting the engine first and the counters later can
// report a drained memtable (compactions advanced) against the
// pre-publish epoch, which reads as a lost update to anyone
// cross-checking epoch against compactions. /statz and /metrics both
// read through it.
func (h *Handler) walSnap() (*engineState, walCounters) {
	ws := h.wals
	ws.mu.Lock()
	defer ws.mu.Unlock()
	return h.snap(), ws.walCounters
}

// walStatz is the /statz "wal" block over counters walSnap captured.
func (h *Handler) walStatz(c walCounters) map[string]interface{} {
	ws := h.wals
	waits := ws.barrierLat.Snapshot()
	ls := ws.log.Stats()
	return map[string]interface{}{
		"ackedSeq":         c.ackedSeq,
		"appliedSeq":       c.appliedSeq,
		"pendingOps":       c.pendingOps,
		"pendingBatches":   c.pendingBatches,
		"acked":            c.acked,
		"compactions":      c.compactions,
		"applyErrors":      c.applyErrors,
		"batchesDropped":   c.batchesDropped,
		"replayedRecords":  c.replayed,
		"snapshots":        c.snapshots,
		"fsyncPolicy":      ws.cfg.Sync.String(),
		"barrierWaits":     waits.Count,
		"barrierWaitNs":    waits.SumNS,
		"lastSeq":          ls.LastSeq,
		"segments":         ls.Segments,
		"bytes":            ls.Bytes,
		"appends":          ls.Appends,
		"fsyncs":           ls.Fsyncs,
		"rotations":        ls.Rotations,
		"tornBytesDropped": ls.TornBytesDropped,
		"segmentsCorrupt":  ls.SegmentsCorrupt,
	}
}

// Close stops the compactor (draining the memtable once more) and
// closes the log. A no-op without a log; safe to call once.
func (h *Handler) Close() error {
	ws := h.wals
	if ws.log == nil {
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
