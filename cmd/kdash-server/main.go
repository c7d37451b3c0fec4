// Command kdash-server serves exact top-k RWR queries over HTTP from a
// saved sharded K-dash index directory, in process or as a coordinator.
// Building is the kdash CLI's job:
//
//	kdash -graph edges.tsv -shards 8 -save-index idxdir
//	kdash-server -load-index idxdir -addr :8080
//	kdash-server -load-index idxdir -cache 256 -max-batch 512
//	kdash-server -load-index idxdir -coordinator 10.0.0.1:9101,10.0.0.2:9101
//
// -load-index takes the index directory `kdash -save-index` writes, of
// one shard or many. Without it, or with a path that is no such
// directory — a single index file from an older build, say — the server
// exits 2 naming the build command,
// `kdash -graph G -shards N -save-index DIR`.
//
// Endpoints:
//
//	GET  /topk?q=<node>&k=<count>[&exclude=1,2,3]
//	POST /topk/batch     {"queries":[{"q":3,"k":5},{"q":9,"k":5,"exclude":[9]}]}
//	POST /personalized   {"seeds":{"3":1,"80":2},"k":5}
//	GET  /proximity?q=<node>&u=<node>
//	POST /update         apply a graph delta, swap to the successor epoch
//	GET  /healthz        liveness, index shape, current epoch, build info
//	GET  /statz          build/load stats, per-shard sizes, query/error counters, latency, RSS
//	GET  /metrics        the same counters as Prometheus text exposition
//
// Any /topk request may add ?trace=1 (or the X-Kdash-Trace: 1 header)
// to receive a per-query push trace — the shard solve sequence with
// residual-bound trajectory and per-phase nanoseconds — in the
// response's "trace" block; see docs/OBSERVABILITY.md.
//
// -log-format/-log-level enable structured request logging through
// log/slog: one line per request with endpoint, status, latency and a
// trace id.
//
// Every POST /update batch is staged (validated against the index plus
// the batches staged before it, then queued) and drained (applied in one
// refactorization and published as the successor epoch). Without
// -wal-dir the request drains its own batch and answers 200 with the
// apply's stats. -wal-dir enables durable update mode on the same
// pipeline: POST /update acks with a 202 after a write-ahead log append
// (microseconds) and a background compactor drains; queries wait on an
// exactness barrier so answers are always bit-identical to a
// synchronous apply. -wal-fsync picks the durability policy,
// -compact-interval the drain cadence, and -wal-snapshot-dir enables
// periodic WAL-stamped snapshots (preferred at startup over
// -load-index, log truncated behind them; it needs -wal-dir). On crash,
// the log's records are staged over the freshest snapshot or the
// -load-index directory and drained
// once; if that drain fails, the server exits. -default-timeout bounds each
// query's compute budget; clients override per request with
// ?budget=<duration>.
//
// -coordinator turns the server into a distributed coordinator: the
// sharded index directory is opened factorless (placement map, cut
// lists and graph snapshot only — no factors), the greedy cross-shard
// push runs locally, and its per-shard factor solves are routed to the
// kdash-workers by the coordinator's placement: each worker serves an
// equal share of the shards (counts differ by at most one), chosen so
// the shards with the most cut weight between them share a worker. One
// call hands a worker the pending state of its shards, and the worker
// continues the push while its own shards hold the most pending mass.
// Workers know no placement: each serves whichever shards it is asked
// to, opening a shard's file on first use. Answers stay bit-identical to a single process serving
// the same directory; a lost worker degrades the queries needing its
// shards to 503 with a Retry-After hint. Updates
// two-phase publish to every worker, so -wal-dir works unchanged;
// -wal-snapshot-dir does not (the coordinator holds no factors to
// snapshot — snapshot from a single-process server instead).
//
// -load-index reads every shard file into sealed read-only memory
// outside the Go heap (on Linux; the Go heap elsewhere), verifying
// every checksum and range-checking every array before the listener
// comes up, so a damaged index is refused at start, never served.
//
// -addr is served by the server package's own HTTP/1.1 connection
// loop, not net/http's server: one goroutine per connection reads each
// request, runs the handler and writes the whole answer in one write,
// with net/http's timeouts, keep-alive and error answers. A client
// that disconnects mid-query is noticed when the push next checks the
// request's context, between solves (a 499, counted in
// kdash_queries_cancelled_total).
//
// SIGINT/SIGTERM drain through srv.Shutdown: the listener and every
// idle keep-alive connection close at once, each in-flight request
// gets its answer (with Connection: close), and the process exits once
// they are done or -shutdown-timeout has passed, whichever is first.
//
// -debug-addr (off by default) serves the Go runtime's profiles,
// /debug/pprof/, on a listener of its own; -addr never serves them.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"kdash"
	"kdash/internal/debugsrv"
	"kdash/internal/placement"
	"kdash/internal/server"
	"kdash/internal/shard"
	"kdash/internal/wal"
)

// engineFlags are the flags that choose the served engine and how it
// is opened.
type engineFlags struct {
	loadIndex, coordinator string
	walDir, walSnapshotDir string
}

// usageError is a flag combination refused before anything is opened;
// main prints it and exits 2.
type usageError string

func (e usageError) Error() string { return string(e) }

// count is a count flag's name and value.
type count struct {
	flag string
	n    int
}

// negativeCount is the usage error for the first negative count: zero
// keeps each count flag's documented meaning, a negative one has none.
func negativeCount(counts ...count) error {
	for _, c := range counts {
		if c.n < 0 {
			return usageError(fmt.Sprintf("-%s %d: a count cannot be negative", c.flag, c.n))
		}
	}
	return nil
}

// buildCommand builds the only index the server serves.
const buildCommand = "`kdash -graph G -shards N -save-index DIR`"

// errNoEngine is the usage error for flags that name no index
// directory.
var errNoEngine = usageError("need -load-index, an index directory; build one with " + buildCommand)

// openEngine opens the index directory the flags name and reports how
// it was brought up, for /statz: "parse" (loaded in process) or
// "coordinator". A WAL snapshot in -wal-snapshot-dir is preferred over
// -load-index.
func openEngine(f engineFlags) (shard.Engine, string, error) {
	tOpen := time.Now()
	if f.loadIndex == "" {
		return nil, "", errNoEngine
	}
	if f.walSnapshotDir != "" {
		if f.walDir == "" {
			return nil, "", usageError("-wal-snapshot-dir needs -wal-dir: only the durable update mode writes snapshots and replays the log behind them")
		}
		if f.coordinator != "" {
			return nil, "", usageError("-wal-snapshot-dir cannot be combined with -coordinator: " + placement.ErrNoSnapshot.Error())
		}
		// A WAL snapshot is strictly newer than the -load-index
		// directory (it is that index plus compacted updates), so
		// recovery prefers it when one exists.
		if snap, ok := server.LatestSnapshot(f.walSnapshotDir); ok {
			log.Printf("recovering from WAL snapshot %s", snap)
			f.loadIndex = snap
		}
	}
	if !shard.IsShardedIndexDir(f.loadIndex) {
		return nil, "", usageError(fmt.Sprintf("-load-index %s is not a sharded index directory, the only index the server serves; build it with %s", f.loadIndex, buildCommand))
	}
	if f.coordinator != "" {
		addrs := strings.Split(f.coordinator, ",")
		co, err := placement.NewCoordinator(f.loadIndex, addrs, placement.Config{})
		if err != nil {
			return nil, "", err
		}
		log.Printf("coordinator (factorless) over %d workers: %d nodes / %d shards in %v",
			len(addrs), co.N(), co.Shards(), time.Since(tOpen).Round(time.Microsecond))
		return co, "coordinator", nil
	}
	sx, err := kdash.OpenShardedIndex(f.loadIndex, kdash.OpenOptions{})
	if err != nil {
		return nil, "", err
	}
	log.Printf("loaded sharded index: %d nodes / %d shards in %v",
		sx.N(), sx.Shards(), time.Since(tOpen).Round(time.Microsecond))
	return sx, "parse", nil
}

// buildLogger assembles the request logger from the -log-format and
// -log-level flags; an empty format disables request logging.
func buildLogger(format, level string) (*slog.Logger, error) {
	if format == "" {
		return nil, nil
	}
	var lv slog.Level
	if err := lv.UnmarshalText([]byte(level)); err != nil {
		return nil, fmt.Errorf("bad -log-level %q: %v", level, err)
	}
	opts := &slog.HandlerOptions{Level: lv}
	switch format {
	case "text":
		return slog.New(slog.NewTextHandler(os.Stderr, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, opts)), nil
	}
	return nil, fmt.Errorf(`bad -log-format %q: want "text" or "json"`, format)
}

func main() {
	var (
		loadIdx   = flag.String("load-index", "", "sharded index directory to serve, as kdash -save-index writes it")
		addr      = flag.String("addr", ":8080", "listen address")
		cacheSize = flag.Int("cache", 0, "LRU /topk answer cache entries (0 = disabled; each entry holds one query node's exact top-64 list, ~1 KB)")
		maxBatch  = flag.Int("max-batch", server.DefaultMaxBatch, "largest /topk/batch request accepted")

		coordinator = flag.String("coordinator", "", "comma-separated kdash-worker addresses: serve -load-index as a distributed coordinator, routing factor solves to the workers (answers stay bit-identical to a single process)")

		readTimeout     = flag.Duration("read-timeout", 10*time.Second, "HTTP read timeout")
		writeTimeout    = flag.Duration("write-timeout", 10*time.Second, "HTTP write timeout")
		shutdownTimeout = flag.Duration("shutdown-timeout", 10*time.Second, "grace period for draining in-flight queries on SIGINT/SIGTERM")
		defaultTimeout  = flag.Duration("default-timeout", 0, "per-query compute budget applied when the request carries no ?budget= override (0 = unbounded)")

		walDir          = flag.String("wal-dir", "", "write-ahead log directory: /update acks after a log append and a background compactor drains the staged batches (empty = synchronous updates: the same stage-and-drain pipeline, with each request draining its own batch)")
		walFsync        = flag.String("wal-fsync", "interval", `WAL durability policy: "always" (fsync before every ack), "interval" (background fsync, bounded loss window), "none" (OS page cache only)`)
		compactInterval = flag.Duration("compact-interval", server.DefaultCompactInterval, "WAL compactor tick: the longest an acked batch waits before a drain folds it into the serving index")
		walSnapshotDir  = flag.String("wal-snapshot-dir", "", "directory for periodic WAL-stamped index snapshots; on start the newest snapshot there is preferred over -load-index, and the log truncates behind each snapshot")

		debugAddr = flag.String("debug-addr", "", "listen address for the Go runtime's profiles (/debug/pprof/) on a listener of their own (empty = off)")
		logFormat = flag.String("log-format", "", `structured request logging: "text" or "json" (empty = off)`)
		logLevel  = flag.String("log-level", "info", "minimum request-log level: debug, info, warn or error")
	)
	flag.Parse()
	if err := negativeCount(count{"cache", *cacheSize}, count{"max-batch", *maxBatch}); err != nil {
		fmt.Fprintf(os.Stderr, "kdash-server: %v\n", err)
		os.Exit(2)
	}
	requestLog, err := buildLogger(*logFormat, *logLevel)
	if err != nil {
		fmt.Fprintf(os.Stderr, "kdash-server: %v\n", err)
		os.Exit(2)
	}
	tOpen := time.Now()
	engine, openMode, err := openEngine(engineFlags{
		loadIndex: *loadIdx, coordinator: *coordinator, walDir: *walDir, walSnapshotDir: *walSnapshotDir,
	})
	var usage usageError
	switch {
	case errors.As(err, &usage):
		fmt.Fprintf(os.Stderr, "kdash-server: %v\n", err)
		if err == errNoEngine {
			flag.Usage()
		}
		os.Exit(2)
	case err != nil:
		log.Fatal(err)
	}
	handlerOpts := []server.Option{
		server.WithCache(*cacheSize),
		server.WithMaxBatch(*maxBatch),
		server.WithOpenInfo(time.Since(tOpen), openMode),
		server.WithRequestLog(requestLog),
		server.WithDefaultTimeout(*defaultTimeout),
	}
	var handler *server.Handler
	if *walDir != "" {
		sync, err := wal.ParseSyncPolicy(*walFsync)
		if err != nil {
			fmt.Fprintf(os.Stderr, "kdash-server: -wal-fsync: %v\n", err)
			os.Exit(2)
		}
		handler, err = server.NewDurable(engine, server.WALConfig{
			Dir:             *walDir,
			Sync:            sync,
			CompactInterval: *compactInterval,
			SnapshotDir:     *walSnapshotDir,
		}, handlerOpts...)
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("durable updates: WAL at %s (fsync=%s, compact every %v)", *walDir, *walFsync, *compactInterval)
	} else {
		handler = server.New(engine, handlerOpts...)
	}
	srv := &server.Server{
		Handler:      handler,
		ReadTimeout:  *readTimeout,
		WriteTimeout: *writeTimeout,
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	if dbg, err := debugsrv.Serve(*debugAddr); err != nil {
		log.Fatalf("-debug-addr: %v", err)
	} else if dbg != nil {
		log.Printf("profiles on http://%s/debug/pprof/", dbg)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	log.Printf("serving on %s", ln.Addr())

	select {
	case err := <-errc:
		log.Fatal(err) // the listener failed; never http.ErrServerClosed here
	case <-ctx.Done():
		stop() // restore default signal handling: a second signal kills immediately
		log.Printf("signal received, draining in-flight queries (up to %v)", *shutdownTimeout)
		sctx, cancel := context.WithTimeout(context.Background(), *shutdownTimeout)
		defer cancel()
		shutdownErr := srv.Shutdown(sctx)
		// Drain the WAL memtable through one final compaction and close
		// the log (a no-op outside WAL mode), also when requests outlast
		// the timeout and the process exits non-zero below.
		if err := handler.Close(); err != nil {
			log.Fatalf("wal close: %v", err)
		} else if *walDir != "" {
			log.Printf("drained the WAL memtable and closed the log")
		}
		if shutdownErr != nil {
			log.Fatalf("shutdown: %v", shutdownErr)
		}
		if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Fatalf("serve: %v", err)
		}
		log.Printf("shut down cleanly")
	}
}
