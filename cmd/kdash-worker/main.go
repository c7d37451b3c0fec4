// Command kdash-worker serves one process's share of the factor-solve
// load for a distributed K-dash deployment: it opens the same sharded
// index directory as the coordinator and answers solve and two-phase
// publish RPCs (see docs/ARCHITECTURE.md, "Distributed serving") over
// the length-prefixed binary protocol in internal/rpc.
//
// Usage:
//
//	kdash-worker -index idxdir -addr 127.0.0.1:9101
//	kdash-worker -index idxdir               # ephemeral port, printed on stdout
//
// The worker prints "LISTEN <host:port>" on stdout once it accepts
// connections, so supervisors (and the differential test harness) can
// bind it to an ephemeral port and discover the address. Shard files
// are opened lazily: only the shards the coordinator's placement map
// actually routes here are ever read, even though every worker sees the
// full directory. Each one is read into sealed read-only memory outside
// the Go heap (on Linux; the Go heap elsewhere), checksummed and
// range-checked on first use. SIGINT/SIGTERM close the listener and
// exit. -debug-addr (off by default) serves the Go runtime's profiles,
// /debug/pprof/, on a listener of its own.
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"syscall"

	"kdash/internal/debugsrv"
	"kdash/internal/placement"
	"kdash/internal/shard"
)

func main() {
	var (
		indexDir  = flag.String("index", "", "sharded index directory (the same directory the coordinator and every other worker open)")
		addr      = flag.String("addr", "127.0.0.1:0", "RPC listen address (port 0 picks an ephemeral port, printed on stdout)")
		debugAddr = flag.String("debug-addr", "", "listen address for the Go runtime's profiles (/debug/pprof/) on a listener of their own (empty = off)")
	)
	flag.Parse()
	if *indexDir == "" {
		fmt.Fprintln(os.Stderr, "kdash-worker: need -index")
		flag.Usage()
		os.Exit(2)
	}
	sx, err := shard.Open(*indexDir, shard.LoadOptions{Lazy: true})
	if err != nil {
		log.Fatal(err)
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
	// The LISTEN line is the worker's readiness contract: everything else
	// logs to stderr so a supervisor can parse stdout alone.
	fmt.Printf("LISTEN %s\n", ln.Addr())
	log.Printf("worker serving %d nodes / %d shards (epoch %d) on %s", sx.N(), sx.Shards(), sx.Epoch(), ln.Addr())

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigc
		log.Printf("signal received, closing listener")
		ln.Close()
	}()
	if err := placement.ServeWorker(ln, sx); err != nil && !errors.Is(err, net.ErrClosed) {
		log.Fatal(err)
	}
	log.Printf("shut down cleanly")
}
