package server

// Native fuzz targets for the HTTP mutation and batch surfaces:
// whatever body arrives at POST /update or POST /topk/batch, the
// handler must produce an HTTP response — 200 for the rare valid
// payload, 4xx/5xx otherwise — and never let a panic escape or corrupt
// the engine for subsequent requests. Each iteration gets a fresh
// Handler over one shared immutable base index, so a "successful"
// fuzzed update cannot snowball the graph across iterations.
//
// FuzzServeConn feeds arbitrary request bytes to the connection loop:
// it must never panic or block past its read timeout, and every answer
// it writes must parse with http.ReadResponse.
//
// Run with:
//
//	go test -fuzz=FuzzUpdateEndpoint ./internal/server
//	go test -fuzz=FuzzBatchEndpoint  ./internal/server
//	go test -fuzz=FuzzServeConn      ./internal/server

import (
	"bufio"
	"bytes"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"kdash/internal/reorder"
	"kdash/internal/shard"
	"kdash/internal/testutil"
)

var fuzzEngine struct {
	once sync.Once
	sx   *shard.ShardedIndex
	err  error
}

func fuzzBaseEngine(f *testing.F) *shard.ShardedIndex {
	f.Helper()
	fuzzEngine.once.Do(func() {
		g := testutil.Clustered(48, 3, 9)
		fuzzEngine.sx, fuzzEngine.err = shard.Build(g, shard.Options{Shards: 3, Reorder: reorder.Hybrid, Seed: 1})
	})
	if fuzzEngine.err != nil {
		f.Fatal(fuzzEngine.err)
	}
	return fuzzEngine.sx
}

// fuzzPost drives one POST and asserts the handler's contract: a
// well-formed HTTP response with a sane status, and the engine still
// answering afterwards.
func fuzzPost(t *testing.T, h *Handler, url, body string) {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, url, strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	switch rec.Code {
	case http.StatusOK, http.StatusBadRequest, http.StatusInternalServerError:
	default:
		t.Fatalf("POST %s %q: unexpected status %d (%s)", url, body, rec.Code, rec.Body.String())
	}
	after := httptest.NewRequest(http.MethodGet, "/topk?q=0&k=3", nil)
	arec := httptest.NewRecorder()
	h.ServeHTTP(arec, after)
	if arec.Code != http.StatusOK {
		t.Fatalf("engine broken after POST %s %q: %d (%s)", url, body, arec.Code, arec.Body.String())
	}
}

func FuzzUpdateEndpoint(f *testing.F) {
	sx := fuzzBaseEngine(f)
	f.Add(`{"addNodes":1,"addEdges":[{"from":48,"to":3,"weight":2}]}`)
	f.Add(`{"addEdges":[{"from":0,"to":1}]}`)
	f.Add(`{"removeEdges":[{"from":0,"to":1}]}`)
	f.Add(`{"addNodes":-1}`)
	f.Add(`{"addNodes":999999999}`)
	f.Add(`{"addEdges":[{"from":-5,"to":1e9,"weight":-0.5}]}`)
	f.Add(`{"addEdges":`)
	f.Add(`[]`)
	f.Add(``)
	f.Add(`{"addEdges":[{"from":0,"to":1,"weight":1e308},{"from":0,"to":1,"weight":1e308}]}`)
	f.Fuzz(func(t *testing.T, body string) {
		fuzzPost(t, New(sx), "/update", body)
	})
}

func FuzzBatchEndpoint(f *testing.F) {
	sx := fuzzBaseEngine(f)
	f.Add(`{"queries":[{"q":3,"k":5},{"q":9,"k":5,"exclude":[9]}]}`)
	f.Add(`{"queries":[]}`)
	f.Add(`{"queries":[{"q":-1,"k":5}]}`)
	f.Add(`{"queries":[{"q":1,"k":-5}]}`)
	f.Add(`{"queries"`)
	f.Add(`null`)
	f.Add(``)
	f.Fuzz(func(t *testing.T, body string) {
		fuzzPost(t, New(sx), "/topk/batch", body)
	})
}

// memConn is a client connection held in memory: reads come from the
// request bytes and end in EOF, writes collect the answers. It is no
// socket, so the loop watches it with the background read.
type memConn struct {
	mu  sync.Mutex
	in  *bytes.Reader
	out bytes.Buffer
}

func (m *memConn) Read(p []byte) (int, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.in.Read(p)
}

func (m *memConn) Write(p []byte) (int, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.out.Write(p)
}

func (m *memConn) Close() error                     { return nil }
func (m *memConn) LocalAddr() net.Addr              { return nil }
func (m *memConn) RemoteAddr() net.Addr             { return nil }
func (m *memConn) SetDeadline(time.Time) error      { return nil }
func (m *memConn) SetReadDeadline(time.Time) error  { return nil }
func (m *memConn) SetWriteDeadline(time.Time) error { return nil }

// methodLog records the method of each request the handler serves, so
// the answers can be read back knowing which were to HEAD.
type methodLog struct {
	h       http.Handler
	methods []string
}

func (l *methodLog) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	l.methods = append(l.methods, r.Method)
	l.h.ServeHTTP(w, r)
}

func FuzzServeConn(f *testing.F) {
	sx := fuzzBaseEngine(f)
	get := "GET /topk?q=3&k=5 HTTP/1.1\r\nHost: kdash\r\n\r\n"
	f.Add([]byte(get))
	f.Add([]byte(get + get + "GET /healthz HTTP/1.0\r\n\r\n"))
	f.Add([]byte("HEAD /healthz HTTP/1.1\r\nHost: kdash\r\n\r\n" + get))
	f.Add([]byte("POST /personalized HTTP/1.1\r\nHost: kdash\r\nContent-Length: 23\r\n\r\n{\"seeds\":{\"3\":1},\"k\":3}" + get))
	f.Add([]byte("POST /topk/batch HTTP/1.1\r\nHost: kdash\r\nExpect: 100-continue\r\nTransfer-Encoding: chunked\r\n\r\n5\r\n{\"que\r\n0\r\n\r\n"))
	f.Add([]byte("POST /topk?q=1&k=2 HTTP/1.1\r\nHost: kdash\r\nContent-Length: 5\r\n\r\nabcde\r\n" + get))
	f.Add([]byte("GET /topk?q=3&k=5&budget=1ns HTTP/1.1\r\nHost: kdash\r\nConnection: close\r\n\r\n"))
	f.Add([]byte("GARBAGE\r\n\r\n"))
	f.Add([]byte("GET / HTTP/1.1\r\n\r\n"))
	f.Add([]byte("PRI * HTTP/2.0\r\n\r\nSM\r\n\r\n"))
	f.Fuzz(func(t *testing.T, in []byte) {
		log := &methodLog{h: New(sx)}
		srv := &Server{Handler: log, ReadTimeout: time.Second, WriteTimeout: time.Second}
		mc := &memConn{in: bytes.NewReader(in)}
		done := make(chan struct{})
		go func() {
			newConn(srv, mc).serve()
			close(done)
		}()
		select {
		case <-done:
		case <-time.After(srv.ReadTimeout + rstAvoidanceDelay):
			t.Fatalf("the loop blocked past its read timeout on %q", in)
		}
		br := bufio.NewReader(bytes.NewReader(mc.out.Bytes()))
		for i := 0; ; {
			if _, err := br.Peek(1); err == io.EOF {
				break
			}
			req := &http.Request{Method: http.MethodGet}
			if i < len(log.methods) {
				req.Method = log.methods[i]
			}
			resp, err := http.ReadResponse(br, req)
			if err != nil {
				t.Fatalf("answer %d does not parse: %v\ninput %q\noutput %q", i, err, in, mc.out.Bytes())
			}
			if _, err := io.ReadAll(resp.Body); err != nil {
				t.Fatalf("answer %d body: %v\ninput %q\noutput %q", i, err, in, mc.out.Bytes())
			}
			if resp.StatusCode != http.StatusContinue {
				i++
			}
		}
	})
}
