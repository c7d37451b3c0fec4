package server

// Tests of the connection loop (serve.go) over real loopback sockets:
// the same raw byte streams sent to net/http's server and to the loop
// must come back alike; a client that hangs up mid-query cancels it;
// shutdown drains; and a cached /topk hit through the loop allocates a
// pinned number of objects.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"regexp"
	"strings"
	"testing"
	"time"

	"kdash/internal/core"
	"kdash/internal/topk"
)

// serveLoop serves h through the connection loop on a loopback
// listener, shut down when the test ends, and returns its address.
func serveLoop(t testing.TB, h http.Handler) (*Server, string) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &Server{Handler: h, ReadTimeout: 10 * time.Second, WriteTimeout: 10 * time.Second}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		if err := <-done; !errors.Is(err, http.ErrServerClosed) {
			t.Errorf("Serve returned %v, want http.ErrServerClosed", err)
		}
	})
	return srv, ln.Addr().String()
}

// serveNetHTTP serves h through net/http's server, with the timeouts
// kdash-server sets, and returns its address.
func serveNetHTTP(t testing.TB, h http.Handler) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &http.Server{Handler: h, ReadTimeout: 10 * time.Second, WriteTimeout: 10 * time.Second}
	go srv.Serve(ln) //nolint:errcheck // ends with Close
	t.Cleanup(func() { srv.Close() })
	return ln.Addr().String()
}

// wireAnswer is one answer read off the wire, reduced to what the
// comparison holds equal.
type wireAnswer struct {
	Status string
	Proto  string
	Header http.Header // without Date and Content-Length
	Close  bool        // Connection: close (http.ReadResponse takes it out of Header)
	Body   string
	// Length is the Content-Length sent, -1 for a chunked or
	// close-delimited body.
	Length  int64
	Chunked bool
}

// exchange sends raw on a new connection, reads n final answers
// (interim 100 Continue ones are kept too) and reports whether the
// server then closed the connection. methods are the methods of the
// requests in raw, in order, so an answer to HEAD is read without a
// body.
func exchange(t *testing.T, addr, raw string, methods []string, n int) (answers []wireAnswer, closed bool) {
	t.Helper()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetDeadline(time.Now().Add(20 * time.Second))
	go io.WriteString(c, raw) //nolint:errcheck // a server that stops reading resets the rest
	br := bufio.NewReader(c)
	for final := 0; final < n; {
		req := &http.Request{Method: http.MethodGet}
		if final < len(methods) {
			req.Method = methods[final]
		}
		resp, err := http.ReadResponse(br, req)
		if err != nil {
			t.Fatalf("answer %d: %v", final, err)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("answer %d body: %v", final, err)
		}
		h := resp.Header.Clone()
		h.Del("Date")
		h.Del("Content-Length")
		answers = append(answers, wireAnswer{resp.Status, resp.Proto, h, resp.Close, string(body), resp.ContentLength, len(resp.TransferEncoding) > 0})
		if resp.StatusCode != http.StatusContinue {
			final++
		}
	}
	// A probe request tells an open connection from a closed one at
	// once: an open one answers it, a closed one ends in EOF or a reset.
	if _, err := io.WriteString(c, rawRequest("GET", "/healthz", nil, "")); err != nil {
		return answers, true
	}
	resp, err := http.ReadResponse(br, nil)
	if err != nil {
		return answers, true
	}
	resp.Body.Close()
	return answers, false
}

// requestMethods parses raw's requests for their methods.
func requestMethods(raw string) []string {
	var methods []string
	br := bufio.NewReader(strings.NewReader(raw))
	for {
		req, err := http.ReadRequest(br)
		if err != nil {
			return methods
		}
		methods = append(methods, req.Method)
		io.Copy(io.Discard, req.Body) //nolint:errcheck
	}
}

var (
	numberRE      = regexp.MustCompile(`-?[0-9][0-9.eE+-]*`)
	metricValueRE = regexp.MustCompile(`(?m) [^ ]+$`)
)

// normalizeBody masks what two handlers answer differently however
// they are served: the numbers of /statz (uptime, memory, latency),
// the values of /metrics and an update's apply time.
func normalizeBody(path, body string) string {
	switch {
	case strings.HasPrefix(path, "/statz"):
		return numberRE.ReplaceAllString(body, "0")
	case strings.HasPrefix(path, "/metrics"):
		return metricValueRE.ReplaceAllString(body, " V")
	case strings.HasPrefix(path, "/update"):
		return regexp.MustCompile(`"applyMillis":[0-9]+`).ReplaceAllString(body, `"applyMillis":0`)
	}
	return body
}

func rawRequest(method, target string, headers []string, body string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s %s HTTP/1.1\r\nHost: kdash\r\n", method, target)
	for _, h := range headers {
		b.WriteString(h + "\r\n")
	}
	if body != "" {
		fmt.Fprintf(&b, "Content-Length: %d\r\n", len(body))
	}
	b.WriteString("\r\n" + body)
	return b.String()
}

// chunk frames s as one chunk of a chunked body.
func chunk(s string) string { return fmt.Sprintf("%x\r\n%s\r\n", len(s), s) }

// conformanceCases are the raw streams TestLoopMatchesNetHTTP sends:
// path names the endpoint whose body needs masking, n the final
// answers the stream gets.
var conformanceCases = []struct {
	name, path, raw string
	n               int
}{
	{"topk", "/topk", rawRequest("GET", "/topk?q=7&k=5", nil, ""), 1},
	{"topk cache hit", "/topk", rawRequest("GET", "/topk?q=7&k=3&exclude=2", nil, ""), 1},
	{"topk budget spent", "/topk", rawRequest("GET", "/topk?q=1&k=3&budget=1ns", nil, ""), 1},
	{"topk bad parameter", "/topk", rawRequest("GET", "/topk?q=x&k=3", nil, ""), 1},
	{"topk wrong method", "/topk", rawRequest("POST", "/topk?q=7&k=3", nil, ""), 1},
	{"proximity", "/proximity", rawRequest("GET", "/proximity?q=7&u=9", nil, ""), 1},
	{"personalized", "/personalized", rawRequest("POST", "/personalized", []string{"Content-Type: application/json"}, `{"seeds":{"7":1,"44":3},"k":4}`), 1},
	{"batch", "/topk/batch", rawRequest("POST", "/topk/batch", nil, `{"queries":[{"q":7,"k":3},{"q":9,"k":3,"exclude":[9]}]}`), 1},
	{"update", "/update", rawRequest("POST", "/update", nil, `{"addEdges":[{"from":7,"to":90}]}`), 1},
	{"topk after update", "/topk", rawRequest("GET", "/topk?q=7&k=5", nil, ""), 1},
	{"healthz", "/healthz", rawRequest("GET", "/healthz", nil, ""), 1},
	{"statz", "/statz", rawRequest("GET", "/statz", nil, ""), 1},
	{"metrics", "/metrics", rawRequest("GET", "/metrics", nil, ""), 1},
	{"not found", "/", rawRequest("GET", "/nope", nil, ""), 1},
	{"no profiles on the serving address", "/", rawRequest("GET", "/debug/pprof/", nil, ""), 1},
	{"malformed request line", "/", "GARBAGE\r\n\r\n", 1},
	{"oversized headers", "/", "GET /healthz HTTP/1.1\r\nHost: kdash\r\nX-Big: " + strings.Repeat("a", 1<<20+8192) + "\r\n\r\n", 1},
	{"missing Host", "/", "GET /healthz HTTP/1.1\r\n\r\n", 1},
	{"malformed Host", "/", "GET /healthz HTTP/1.1\r\nHost: a b\r\n\r\n", 1},
	{"HTTP/2.0 request line", "/", "GET /healthz HTTP/2.0\r\nHost: kdash\r\n\r\n", 1},
	{"unsupported transfer encoding", "/", "POST /update HTTP/1.1\r\nHost: kdash\r\nTransfer-Encoding: gzip\r\n\r\n", 1},
	{"HTTP/1.0", "/healthz", "GET /healthz HTTP/1.0\r\n\r\n", 1},
	{"HTTP/1.0 keep-alive", "/healthz", "GET /healthz HTTP/1.0\r\nConnection: keep-alive\r\n\r\nGET /healthz HTTP/1.0\r\n\r\n", 2},
	{"Connection: close", "/healthz", rawRequest("GET", "/healthz", []string{"Connection: close"}, ""), 1},
	{"HEAD", "/healthz", rawRequest("HEAD", "/healthz", nil, "") + rawRequest("HEAD", "/topk?q=7&k=3", nil, "") + rawRequest("GET", "/healthz", nil, ""), 3},
	{"pipelined", "/topk", rawRequest("GET", "/topk?q=9&k=3", nil, "") + rawRequest("GET", "/topk?q=9&k=3", nil, "") + rawRequest("GET", "/proximity?q=9&u=7", nil, ""), 3},
	{"Expect: 100-continue", "/personalized", rawRequest("POST", "/personalized", []string{"Expect: 100-continue"}, `{"seeds":{"3":1},"k":3}`), 1},
	{"Expect: 100-continue, body unread", "/topk", rawRequest("POST", "/topk?q=7&k=3", []string{"Expect: 100-continue"}, `{}`), 1},
	{"other expectation", "/", rawRequest("POST", "/personalized", []string{"Expect: teapot"}, `{}`), 1},
	{"chunked body", "/personalized", "POST /personalized HTTP/1.1\r\nHost: kdash\r\nTransfer-Encoding: chunked\r\n\r\n" +
		chunk(`{"seeds":{"`) + chunk(`5":1},"k":3}    `) + "0\r\n\r\n" + rawRequest("GET", "/healthz", nil, ""), 2},
	{"body the handler leaves unread", "/topk", rawRequest("POST", "/topk?q=7&k=3", nil, strings.Repeat("x", 1000)) + rawRequest("GET", "/healthz", nil, ""), 2},
	{"over-cap POST", "/personalized", rawRequest("POST", "/personalized", nil, strings.Repeat(" ", maxPostBody+(1<<20))+`{"seeds":{"3":1},"k":3}`), 1},
}

// TestLoopMatchesNetHTTP sends the same raw byte streams to
// net/http's server and to the connection loop, each over its own
// handler and identically built engine, and requires the same answers:
// status, protocol, headers but Date, decoded bodies (masked where a
// handler's own numbers differ), the Content-Length wherever net/http
// sends one, and whether the connection stays open. Where net/http
// chunks a large body, the loop's Content-Length must equal its length.
func TestLoopMatchesNetHTTP(t *testing.T) {
	ref := serveNetHTTP(t, updatableHandler(t, WithCache(8)))
	_, loop := serveLoop(t, updatableHandler(t, WithCache(8)))
	for _, tc := range conformanceCases {
		t.Run(tc.name, func(t *testing.T) {
			methods := requestMethods(tc.raw)
			want, wantClosed := exchange(t, ref, tc.raw, methods, tc.n)
			got, gotClosed := exchange(t, loop, tc.raw, methods, tc.n)
			for i := range want {
				w, g := want[i], got[i]
				if w.Chunked {
					if g.Length != int64(len(g.Body)) {
						t.Errorf("answer %d: loop's Content-Length %d, body %d bytes", i, g.Length, len(g.Body))
					}
					w.Length, w.Chunked = int64(len(w.Body)), false
				}
				if masked := normalizeBody(tc.path, w.Body); masked != w.Body {
					// Masked numbers change the length: hold each side's
					// Content-Length to its own body instead.
					if g.Length != int64(len(g.Body)) || w.Length != int64(len(w.Body)) {
						t.Errorf("answer %d: Content-Length %d/%d for bodies of %d/%d bytes", i, w.Length, g.Length, len(w.Body), len(g.Body))
					}
					w.Length, g.Length = 0, 0
				}
				w.Body, g.Body = normalizeBody(tc.path, w.Body), normalizeBody(tc.path, g.Body)
				wj, _ := json.Marshal(w)
				gj, _ := json.Marshal(g)
				if !bytes.Equal(wj, gj) {
					t.Errorf("answer %d differs:\nnet/http %s\nloop     %s", i, wj, gj)
				}
			}
			if gotClosed != wantClosed {
				t.Errorf("connection closed after the stream: loop %v, net/http %v", gotClosed, wantClosed)
			}
		})
	}
}

// TestMalformedInputsThroughLoop runs the hardening table through the
// loop over a socket: every input gets its status and, for an error,
// a JSON error document.
func TestMalformedInputsThroughLoop(t *testing.T) {
	h, _ := testHandler(t)
	_, addr := serveLoop(t, h)
	client := &http.Client{Timeout: 10 * time.Second}
	for _, tc := range malformedInputs {
		req, err := http.NewRequest(tc.method, "http://"+addr+tc.url, strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := client.Do(req)
		if err != nil {
			t.Fatalf("%s %s: %v", tc.method, tc.url, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s %s %q: status %d, want %d (%s)", tc.method, tc.url, tc.body, resp.StatusCode, tc.want, body)
		}
		if tc.want != http.StatusOK {
			var doc map[string]string
			if err := json.Unmarshal(body, &doc); err != nil || doc["error"] == "" {
				t.Errorf("%s %s: error response lacks error field: %q", tc.method, tc.url, body)
			}
		}
	}
}

// blockingEngine's Search runs until its context ends — polling Err
// between sleeps, as the push checks it between solves, or waiting on
// Done — and reports what ended it.
type blockingEngine struct {
	brokenEngine
	waitDone bool
	started  chan struct{}
	ended    chan error
}

func (e *blockingEngine) Search(q int, opt core.SearchOptions) ([]topk.Result, core.SearchStats, error) {
	e.started <- struct{}{}
	giveUp := time.After(10 * time.Second)
	var err error
	if e.waitDone {
		select {
		case <-opt.Ctx.Done():
			err = opt.Ctx.Err()
		case <-giveUp:
		}
	} else {
		for err = opt.Ctx.Err(); err == nil; err = opt.Ctx.Err() {
			select {
			case <-giveUp:
				e.ended <- nil
				return nil, core.SearchStats{}, errors.New("context never ended")
			case <-time.After(time.Millisecond):
			}
		}
	}
	e.ended <- err
	if err == nil {
		err = errors.New("context never ended")
	}
	return nil, core.SearchStats{}, err
}

// TestClientDisconnectCancelsQuery: a client that closes its
// connection mid-query cancels the query's context — whether the
// engine polls Err or waits on Done — and the query counts as
// cancelled, through net/http's server and through the loop alike.
func TestClientDisconnectCancelsQuery(t *testing.T) {
	servers := []struct {
		name  string
		serve func(t testing.TB, h http.Handler) string
	}{
		{"net/http", serveNetHTTP},
		{"loop", func(t testing.TB, h http.Handler) string { _, addr := serveLoop(t, h); return addr }},
	}
	for _, s := range servers {
		for _, waitDone := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/waitDone=%v", s.name, waitDone), func(t *testing.T) {
				e := &blockingEngine{brokenEngine: brokenEngine{n: 100}, waitDone: waitDone,
					started: make(chan struct{}, 1), ended: make(chan error, 1)}
				h := New(e)
				addr := s.serve(t, h)
				c, err := net.Dial("tcp", addr)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := io.WriteString(c, rawRequest("GET", "/topk?q=1&k=5", nil, "")); err != nil {
					t.Fatal(err)
				}
				select {
				case <-e.started:
				case <-time.After(10 * time.Second):
					t.Fatal("the query never reached the engine")
				}
				c.Close()
				if err := <-e.ended; !errors.Is(err, context.Canceled) {
					t.Fatalf("the engine's context ended with %v, want context.Canceled", err)
				}
				for deadline := time.Now().Add(5 * time.Second); h.qCancelled.Value() != 1; time.Sleep(time.Millisecond) {
					if time.Now().After(deadline) {
						t.Fatalf("queries.cancelled = %d, want 1", h.qCancelled.Value())
					}
				}
				_, doc := get(t, h, "/statz")
				var queries map[string]int64
				if err := json.Unmarshal(doc["queries"], &queries); err != nil {
					t.Fatal(err)
				}
				if queries["cancelled"] != 1 || queries["internal"] != 0 {
					t.Errorf("/statz queries = %v, want cancelled 1 and no internal error", queries)
				}
			})
		}
	}
}

// TestBudgetThroughLoop: a ?budget= deadline wraps the loop's request
// context in a timer context and ends the query with a 499, whether
// the engine polls Err or waits on Done.
func TestBudgetThroughLoop(t *testing.T) {
	for _, waitDone := range []bool{false, true} {
		t.Run(fmt.Sprintf("waitDone=%v", waitDone), func(t *testing.T) {
			e := &blockingEngine{brokenEngine: brokenEngine{n: 100}, waitDone: waitDone,
				started: make(chan struct{}, 1), ended: make(chan error, 1)}
			_, addr := serveLoop(t, New(e))
			resp, err := http.Get("http://" + addr + "/topk?q=1&k=5&budget=30ms")
			if err != nil {
				t.Fatal(err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if err := <-e.ended; !errors.Is(err, context.DeadlineExceeded) {
				t.Errorf("the engine's context ended with %v, want context.DeadlineExceeded", err)
			}
			if resp.StatusCode != statusClientClosedRequest {
				t.Errorf("status %d, want 499", resp.StatusCode)
			}
		})
	}
}

// TestShutdownDrains: once Shutdown starts, an idle keep-alive
// connection closes at once and the listener refuses new ones, while
// the in-flight request still gets its answer (with Connection: close)
// before Shutdown returns; a Shutdown whose context ends first returns
// its error.
func TestShutdownDrains(t *testing.T) {
	release, entered := make(chan struct{}), make(chan struct{}, 1)
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/slow" {
			entered <- struct{}{}
			<-release
		}
		io.WriteString(w, "done\n")
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &Server{Handler: h, ReadTimeout: 10 * time.Second}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	addr := ln.Addr().String()

	dial := func() (net.Conn, *bufio.Reader) {
		c, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		return c, bufio.NewReader(c)
	}
	idle, idleR := dial()
	io.WriteString(idle, rawRequest("GET", "/fast", nil, ""))
	if resp, err := http.ReadResponse(idleR, nil); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("warm-up request: %v", err)
	} else {
		io.Copy(io.Discard, resp.Body)
	}
	busy, busyR := dial()
	io.WriteString(busy, rawRequest("GET", "/slow", nil, ""))
	<-entered

	shut := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shut <- srv.Shutdown(ctx)
	}()
	idle.SetReadDeadline(time.Now().Add(2 * time.Second))
	t0 := time.Now()
	if _, err := idleR.ReadByte(); err != io.EOF {
		t.Fatalf("idle keep-alive connection: read %v, want EOF", err)
	}
	if d := time.Since(t0); d > time.Second {
		t.Errorf("idle connection closed %v after shutdown began, want at once", d)
	}
	if c, err := net.Dial("tcp", addr); err == nil {
		c.Close()
		t.Error("the listener still accepts during shutdown")
	}
	select {
	case err := <-shut:
		t.Fatalf("Shutdown returned %v with a request in flight", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	resp, err := http.ReadResponse(busyR, nil)
	if err != nil {
		t.Fatalf("in-flight request: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK || string(body) != "done\n" || !resp.Close {
		t.Errorf("in-flight answer: %d %q, Connection: close %v; want 200 \"done\\n\" and close", resp.StatusCode, body, resp.Close)
	}
	select {
	case err := <-shut:
		if err != nil {
			t.Errorf("Shutdown: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Shutdown did not return once the in-flight request finished")
	}
	if err := <-served; !errors.Is(err, http.ErrServerClosed) {
		t.Errorf("Serve returned %v, want http.ErrServerClosed", err)
	}

	// A request that never finishes: Shutdown gives up with its
	// context's error.
	srv2, addr2 := serveLoop(t, h)
	stuck, err := net.Dial("tcp", addr2)
	if err != nil {
		t.Fatal(err)
	}
	defer stuck.Close()
	release = make(chan struct{})
	io.WriteString(stuck, rawRequest("GET", "/slow", nil, ""))
	<-entered
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	if err := srv2.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("Shutdown with a stuck request returned %v, want context.DeadlineExceeded", err)
	}
	close(release)
}

// readAnswer reads one answer with a Content-Length body into buf
// without allocating, and returns its status code.
func readAnswer(c net.Conn, buf []byte) (int, error) {
	n := 0
	for {
		m, err := c.Read(buf[n:])
		if err != nil {
			return 0, err
		}
		n += m
		end := bytes.Index(buf[:n], []byte("\r\n\r\n"))
		if end < 0 {
			continue
		}
		at := bytes.Index(buf[:end], []byte("Content-Length: "))
		if at < 0 {
			return 0, errors.New("no Content-Length")
		}
		length := 0
		for _, d := range buf[at+len("Content-Length: "):] {
			if d < '0' || d > '9' {
				break
			}
			length = 10*length + int(d-'0')
		}
		for n < end+4+length {
			m, err := c.Read(buf[n:])
			if err != nil {
				return 0, err
			}
			n += m
		}
		return int(buf[9]-'0')*100 + int(buf[10]-'0')*10 + int(buf[11]-'0'), nil
	}
}

// TestLoopCacheHitAllocs pins what a cached /topk hit allocates
// through the loop over a socket, server and handler together: the
// handler's 5 (TestTopKCacheHitAllocs), http.ReadRequest's request,
// URL, header map and strings, the request context and the request
// copy that carries it. net/http's server adds a cancel context, a
// background-read goroutine and a response per request on top.
func TestLoopCacheHitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation adds allocations; counts are asserted in the regular build")
	}
	_, ix := testHandler(t)
	h := New(ix, WithCache(4))
	_, addr := serveLoop(t, h)
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	req := []byte("GET /topk?q=7&k=10 HTTP/1.1\r\nHost: kdash\r\nUser-Agent: kdash-test\r\n\r\n")
	buf := make([]byte, 64<<10)
	hit := func() {
		if _, err := c.Write(req); err != nil {
			t.Fatal(err)
		}
		if code, err := readAnswer(c, buf); err != nil || code != http.StatusOK {
			t.Fatalf("status %d, %v", code, err)
		}
	}
	for range 3 {
		hit() // the miss that fills the entry, then warm buffers
	}
	avg := testing.AllocsPerRun(300, hit)
	if hits := h.cacheHits.Value(); hits != 303 {
		t.Fatalf("%d cache hits, want every request after the first", hits)
	}
	t.Logf("a cache hit through the loop allocates %.2f objects", avg)
	const pinned = 16
	if avg > pinned {
		t.Errorf("a cache hit through the loop allocates %.2f objects, want <= %d", avg, pinned)
	}
}

// BenchmarkLoopCacheHit times a cached /topk hit end to end over one
// keep-alive loopback connection: client write, the loop, the handler,
// the answer read back.
func BenchmarkLoopCacheHit(b *testing.B) {
	_, addr := serveLoop(b, New(benchEngine(b), WithCache(4)))
	benchSocketHits(b, addr)
}

// BenchmarkNetHTTPCacheHit is the same over net/http's server.
func BenchmarkNetHTTPCacheHit(b *testing.B) {
	benchSocketHits(b, serveNetHTTP(b, New(benchEngine(b), WithCache(4))))
}

func benchSocketHits(b *testing.B, addr string) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	req := []byte("GET /topk?q=7&k=10 HTTP/1.1\r\nHost: kdash\r\n\r\n")
	buf := make([]byte, 64<<10)
	b.ReportAllocs()
	for i := -1; i < b.N; i++ {
		if i == 0 {
			b.ResetTimer()
		}
		if _, err := c.Write(req); err != nil {
			b.Fatal(err)
		}
		if code, err := readAnswer(c, buf); err != nil || code != http.StatusOK {
			b.Fatalf("status %d, %v", code, err)
		}
	}
}

// tcpPair returns the two ends of a loopback TCP connection.
func tcpPair(t *testing.T) (client, server net.Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		c, _ := ln.Accept()
		accepted <- c
	}()
	client, err = net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	server = <-accepted
	if server == nil {
		t.Fatal("accept failed")
	}
	t.Cleanup(func() { client.Close(); server.Close() })
	return client, server
}

// hidingListener accepts connections whose descriptor is hidden, as a
// connection the loop cannot peek.
type hidingListener struct{ net.Listener }

func (l hidingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return struct{ net.Conn }{c}, nil
}

// TestRequestContext drives reqCtx on a socket the loop can peek and
// on one it cannot (watched by the background read): a handler that
// waits on Done past the loop's read timeout is not cancelled, Err's
// peek allocates nothing, a client that hangs up cancels the request
// while several goroutines poll Err, and a pipelined next request
// stops the watch and keeps its first byte for the next read.
func TestRequestContext(t *testing.T) {
	for _, peekable := range []bool{true, false} {
		t.Run(fmt.Sprintf("peekable=%v", peekable), func(t *testing.T) {
			conn := func() (net.Conn, *conn) {
				client, server := tcpPair(t)
				if !peekable {
					server = struct{ net.Conn }{server} // hides the descriptor
				}
				c := newConn(&Server{}, server)
				if (c.peek != nil) != peekable {
					t.Fatalf("peeker %v on a peekable=%v connection", c.peek, peekable)
				}
				return client, c
			}
			wait := func(ch <-chan struct{}, what string) {
				select {
				case <-ch:
				case <-time.After(5 * time.Second):
					t.Fatalf("%s never closed Done", what)
				}
			}

			// The watcher Done starts reads without the read deadline
			// the request's first byte set, as net/http's does.
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			if !peekable {
				ln = hidingListener{ln}
			}
			const readTimeout = 50 * time.Millisecond
			srv := &Server{ReadTimeout: readTimeout, Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				select {
				case <-r.Context().Done():
					http.Error(w, r.Context().Err().Error(), statusClientClosedRequest)
				case <-time.After(4 * readTimeout):
					io.WriteString(w, "waited\n")
				}
			})}
			go srv.Serve(ln) //nolint:errcheck // ends with Shutdown
			resp, err := http.Get("http://" + ln.Addr().String() + "/")
			if err != nil {
				t.Fatal(err)
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("a handler waiting past the read timeout: %s %q, want 200", resp.Status, body)
			}
			if err := srv.Shutdown(context.Background()); err != nil {
				t.Errorf("shutdown: %v", err)
			}

			if peekable && !raceEnabled {
				_, c := conn()
				x := &reqCtx{c: c}
				x.bodyRead()
				if n := testing.AllocsPerRun(100, func() { x.Err() }); n != 0 {
					t.Errorf("Err's peek allocates %v objects, want 0", n)
				}
				x.finish()
			}

			client, c := conn()
			x := &reqCtx{c: c}
			x.bodyRead()
			polled := make(chan error, 4)
			for range 4 {
				go func() {
					for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
						if err := x.Err(); err != nil {
							polled <- err
							return
						}
					}
					polled <- errors.New("Err never reported the hang-up")
				}()
			}
			done := x.Done()
			client.Close()
			wait(done, "the hang-up")
			for range 4 {
				if err := <-polled; !errors.Is(err, context.Canceled) {
					t.Errorf("a poller saw %v, want context.Canceled", err)
				}
			}
			x.finish()

			client, c = conn()
			x = &reqCtx{c: c}
			x.bodyRead()
			io.WriteString(client, "GET /next")
			// The watch stops once it sees the bytes: the peek on its
			// next Err, the background read when it returns.
			stopped := func() bool {
				x.mu.Lock()
				defer x.mu.Unlock()
				if peekable {
					return !x.watch
				}
				select {
				case <-x.bgDone:
					return true
				default:
					return false
				}
			}
			for deadline := time.Now().Add(5 * time.Second); !stopped(); time.Sleep(time.Millisecond) {
				if err := x.Err(); err != nil {
					t.Fatalf("a pipelined request: Err %v", err)
				}
				if time.Now().After(deadline) {
					t.Fatal("the watch never saw the pipelined bytes")
				}
			}
			client.Close()
			time.Sleep(20 * time.Millisecond)
			if err := x.Err(); err != nil {
				t.Errorf("a hang-up after a pipelined request: Err %v, want the watch stopped", err)
			}
			x.finish()
			if b, err := c.br.ReadByte(); err != nil || b != 'G' {
				t.Errorf("the next request's first byte: %q, %v", b, err)
			}
		})
	}
}
