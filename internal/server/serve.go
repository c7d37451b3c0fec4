package server

// The HTTP/1.1 connection loop kdash-server serves on, in process and as
// a coordinator. One goroutine per connection reads each request with
// http.ReadRequest, runs the handler against a ResponseWriter that
// buffers the whole answer, and sends the status line, headers,
// Content-Length and body in one Write. Nothing else runs per request:
// no goroutine, no cancel context and no background read.
//
// Everything a client can see follows net/http's server: the read and
// write timeouts (the read timeout doubling as the keep-alive idle
// timeout), keep-alive and Connection: close, HTTP/1.0, HEAD,
// Expect: 100-continue and the 417 for any other expectation, the 400,
// 431, 501 and 505 answers to requests it cannot read, the discard of
// at most 256 KB of a body the handler left unread, and a Shutdown that
// closes the listener and idle connections at once and waits for
// in-flight requests. The differences: where net/http would chunk a
// body over 2 KB, the loop sends a Content-Length; it writes the
// Connection, Content-Length and Date headers itself, whatever the
// handler set; an HTTP/2 connection preface is refused with 505; and a
// request in absolute form (GET http://host/path) is checked against
// its URL's host, since http.ReadRequest keeps no other.
//
// A client that disconnects is noticed through the request's context
// (reqCtx): its Err, which the push checks between solves, peeks at the
// socket without blocking (peek_unix.go); a watcher starts only when
// something waits on Done, and off the platforms that can peek the
// context keeps net/http's background read.

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"math"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Server serves an http.Handler over HTTP/1.1 from its own connection
// loop, on one listener. Set its fields before Serve.
type Server struct {
	Handler http.Handler
	// ReadTimeout bounds reading a request, from its first byte to the
	// end of its body, and how long a keep-alive connection may idle
	// between requests; WriteTimeout bounds the time from the end of a
	// request's headers to the end of its answer. Zero means no limit.
	ReadTimeout, WriteTimeout time.Duration

	inShutdown atomic.Bool
	mu         sync.Mutex
	ln         net.Listener
	conns      map[*conn]struct{}
}

const (
	// maxHeaderBytes is net/http's DefaultMaxHeaderBytes: a request line
	// and headers past it (plus the 4 KB net/http allows on top) are
	// answered 431.
	maxHeaderBytes = 1<<20 + 4096
	// maxPostHandlerReadBytes is the most of a request body the handler
	// left unread that the loop reads to keep the connection; past it
	// the answer says Connection: close.
	maxPostHandlerReadBytes = 256 << 10
	// rstAvoidanceDelay is how long a connection closed with request
	// bytes unread stays half-closed, so the client reads the answer
	// before the reset its unread bytes cause.
	rstAvoidanceDelay = 500 * time.Millisecond
)

// Serve accepts connections on ln and serves each on its own goroutine
// until Shutdown closes ln; it then returns http.ErrServerClosed.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.inShutdown.Load() {
		s.mu.Unlock()
		return http.ErrServerClosed
	}
	if s.conns == nil {
		s.conns = map[*conn]struct{}{}
	}
	s.ln = ln
	s.mu.Unlock()
	var delay time.Duration // accept backoff, as net/http's
	for {
		rw, err := ln.Accept()
		if err != nil {
			if s.inShutdown.Load() {
				return http.ErrServerClosed
			}
			if ne, ok := err.(interface{ Temporary() bool }); ok && ne.Temporary() {
				delay = min(max(2*delay, 5*time.Millisecond), time.Second)
				log.Printf("kdash: accept error: %v; retrying in %v", err, delay)
				time.Sleep(delay)
				continue
			}
			return err
		}
		delay = 0
		if c := s.track(rw); c != nil {
			go c.serve()
		}
	}
}

// track registers a new connection; nil (and the connection closed)
// once shutdown has begun.
func (s *Server) track(rw net.Conn) *conn {
	c := newConn(s, rw)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.inShutdown.Load() {
		rw.Close()
		return nil
	}
	s.conns[c] = struct{}{}
	return c
}

// Shutdown stops the server as http.Server.Shutdown does: it closes
// the listener and every idle connection, then waits for the
// connections serving a request to finish it — each answers with
// Connection: close — and returns once none is left, or with ctx's
// error when ctx ends first, leaving those connections to finish.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.inShutdown.Store(true)
	var lnerr error
	if s.ln != nil {
		lnerr = s.ln.Close()
		s.ln = nil
	}
	s.mu.Unlock()
	interval := time.Millisecond
	timer := time.NewTimer(interval)
	defer timer.Stop()
	for {
		if s.closeIdleConns() {
			return lnerr
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-timer.C:
			interval = min(2*interval, 100*time.Millisecond)
			timer.Reset(interval)
		}
	}
}

// closeIdleConns closes every idle connection, and every new one that
// has sent nothing for 5 s, and reports whether none is left.
func (s *Server) closeIdleConns() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	stale := time.Now().Unix() - 5
	for c := range s.conns {
		st := c.state.Load()
		if st != stateIdle && !(st&stateMask == stateNew && int64(st>>8) < stale) {
			continue
		}
		if c.state.CompareAndSwap(st, stateClosed) {
			c.rwc.Close()
			delete(s.conns, c)
		}
	}
	return len(s.conns) == 0
}

// Connection states, in the low byte of conn.state; a new
// connection's upper bits hold the Unix second it was accepted.
const (
	stateNew uint64 = iota
	stateActive
	stateIdle
	stateClosed
	stateMask = 0xff
)

// conn is one client connection and everything its requests reuse.
// Errors from setting its deadlines and from writing a refusal are not
// checked, as net/http does not check them: they fail only on a
// connection that is closed, and its next read or write ends the loop.
type conn struct {
	srv        *Server
	rwc        net.Conn
	peek       *peeker // the disconnect peek; nil: this connection cannot be peeked
	remoteAddr string
	state      atomic.Uint64
	r          connReader
	br         *bufio.Reader
	w          response
	out        []byte // the answer on the wire: status line, headers, body
	lastPOST   bool   // the previous request was a POST
	dateSec    int64  // the second date formats
	date       []byte // the Date header value for dateSec
}

func newConn(s *Server, rw net.Conn) *conn {
	c := &conn{srv: s, rwc: rw, peek: newPeeker(rw), r: connReader{remain: math.MaxInt64}}
	if ra := rw.RemoteAddr(); ra != nil {
		c.remoteAddr = ra.String()
	}
	c.r.c = c
	c.br = bufio.NewReader(&c.r)
	c.w.c = c
	c.w.header = http.Header{}
	c.state.Store(uint64(time.Now().Unix())<<8 | stateNew)
	return c
}

// close closes the connection and forgets it.
func (c *conn) close() {
	c.state.Store(stateClosed)
	c.rwc.Close()
	c.srv.mu.Lock()
	delete(c.srv.conns, c)
	c.srv.mu.Unlock()
}

// serve runs the connection's requests one after another until the
// client leaves, a request asks to close, or shutdown begins.
func (c *conn) serve() {
	defer func() {
		if v := recover(); v != nil && v != http.ErrAbortHandler {
			buf := make([]byte, 64<<10)
			buf = buf[:runtime.Stack(buf, false)]
			log.Printf("kdash: panic serving %v: %v\n%s", c.remoteAddr, v, buf)
		}
		c.close()
	}()
	rt := c.srv.ReadTimeout
	for {
		// Wait for the request's first byte under the idle timeout; the
		// read timeout starts once it has come.
		if c.br.Buffered() == 0 {
			if rt > 0 {
				c.rwc.SetReadDeadline(time.Now().Add(rt))
			}
			if _, err := c.br.Peek(1); err != nil {
				return
			}
		}
		st := c.state.Load()
		if st == stateClosed || !c.state.CompareAndSwap(st, stateActive) {
			return // closed by shutdown
		}
		if !c.serveRequest() {
			return
		}
		c.state.Store(stateIdle)
		if c.srv.inShutdown.Load() {
			return
		}
	}
}

// serveRequest reads one request, runs the handler and writes its
// answer, and reports whether the connection stays open.
func (c *conn) serveRequest() bool {
	if rt := c.srv.ReadTimeout; rt > 0 {
		c.rwc.SetReadDeadline(time.Now().Add(rt))
	}
	if c.lastPOST {
		// RFC 7230 section 3 tolerance for clients that end a POST
		// body with a stray CRLF, as net/http allows.
		peek, _ := c.br.Peek(4)
		c.br.Discard(leadingCRLF(peek))
	}
	c.r.remain = maxHeaderBytes
	req, err := http.ReadRequest(c.br)
	tooLarge := err != nil && c.r.remain <= 0
	c.r.remain = math.MaxInt64
	if wt := c.srv.WriteTimeout; wt > 0 {
		c.rwc.SetWriteDeadline(time.Now().Add(wt))
	}
	if err == nil {
		err = checkRequest(req)
	}
	if err != nil {
		c.replyReadError(err, tooLarge)
		return false
	}
	c.lastPOST = req.Method == http.MethodPost

	w := &c.w
	w.reset(req)
	if expect := req.Header.Get("Expect"); hasToken(expect, "100-continue") {
		w.expectContinue = req.ProtoAtLeast(1, 1) && req.ContentLength != 0
		w.continuePending = w.expectContinue
	} else if expect != "" {
		w.wantsClose = true
		w.WriteHeader(http.StatusExpectationFailed)
		c.finish(w)
		return false
	}
	ctx := &reqCtx{c: c}
	if req.Body != http.NoBody {
		w.body = &reqBody{w: w, rc: req.Body, ctx: ctx}
		req.Body = w.body
		c.r.ctx = ctx // a read error while the handler reads the body cancels it
	} else {
		ctx.bodyRead()
	}
	req = req.WithContext(ctx)
	req.RemoteAddr = c.remoteAddr
	w.req = req

	c.runHandler(w, req, ctx)
	return c.finish(w)
}

// runHandler runs the handler and ends the request's context, also
// when the handler panics: a goroutine the handler left running must
// not peek at a connection that serve's recover is about to close.
func (c *conn) runHandler(w *response, req *http.Request, ctx *reqCtx) {
	defer ctx.finish()
	c.srv.Handler.ServeHTTP(w, req)
}

// checkRequest refuses what net/http's server refuses past
// http.ReadRequest: a protocol other than HTTP/1.x, and an HTTP/1.1
// request without a valid Host header. (textproto has already refused
// malformed header names and values.)
func checkRequest(req *http.Request) error {
	if req.ProtoMajor != 1 {
		return statusError{http.StatusHTTPVersionNotSupported, "unsupported protocol version"}
	}
	// http.ReadRequest moves the Host header into req.Host.
	if req.ProtoAtLeast(1, 1) && req.Host == "" && req.Method != http.MethodConnect {
		return statusError{http.StatusBadRequest, "missing required Host header"}
	}
	for i := 0; i < len(req.Host); i++ {
		if !validHostByte[req.Host[i]] {
			return statusError{http.StatusBadRequest, "malformed Host header"}
		}
	}
	return nil
}

// statusError is a request the loop refuses before any handler runs.
type statusError struct {
	code int
	text string
}

func (e statusError) Error() string { return http.StatusText(e.code) + ": " + e.text }

// replyReadError answers a request the loop could not read, with the
// bytes net/http's server sends, or closes silently when the client
// went away or timed out.
func (c *conn) replyReadError(err error, tooLarge bool) {
	const errorHeaders = "\r\nContent-Type: text/plain; charset=utf-8\r\nConnection: close\r\n\r\n"
	var se statusError
	switch {
	case tooLarge:
		const publicErr = "431 Request Header Fields Too Large"
		io.WriteString(c.rwc, "HTTP/1.1 "+publicErr+errorHeaders+publicErr)
		c.closeWriteAndWait()
	case strings.HasPrefix(err.Error(), "unsupported transfer encoding"):
		const code = http.StatusNotImplemented
		fmt.Fprintf(c.rwc, "HTTP/1.1 %d %s%sUnsupported transfer encoding", code, http.StatusText(code), errorHeaders)
	case isCommonNetReadError(err):
	case errors.As(err, &se):
		fmt.Fprintf(c.rwc, "HTTP/1.1 %d %s: %s%s%d %s: %s", se.code, http.StatusText(se.code), se.text, errorHeaders, se.code, http.StatusText(se.code), se.text)
	default:
		const publicErr = "400 Bad Request"
		io.WriteString(c.rwc, "HTTP/1.1 "+publicErr+errorHeaders+publicErr)
	}
}

func isCommonNetReadError(err error) bool {
	if err == io.EOF {
		return true
	}
	if ne, ok := err.(net.Error); ok && ne.Timeout() {
		return true
	}
	oe, ok := err.(*net.OpError)
	return ok && oe.Op == "read"
}

// closeWriteAndWait half-closes the connection and waits
// rstAvoidanceDelay before the caller closes it.
func (c *conn) closeWriteAndWait() {
	if cw, ok := c.rwc.(interface{ CloseWrite() error }); ok {
		cw.CloseWrite()
	}
	time.Sleep(rstAvoidanceDelay)
}

// finish writes w's answer in one Write and reports whether the
// connection stays open for another request. Its framing and
// Connection header follow net/http's chunkWriter.writeHeader.
func (c *conn) finish(w *response) bool {
	if !w.wroteHeader {
		w.WriteHeader(http.StatusOK)
	}
	req := w.req
	isHEAD := req.Method == http.MethodHead
	bodyAllowed := bodyAllowedForStatus(w.status)
	hasCL := bodyAllowed && (!isHEAD || len(w.buf) > 0)
	closeAfter := c.srv.inShutdown.Load()
	connection := ""
	if w.wants10KeepAlive && (isHEAD || hasCL || !bodyAllowed) {
		connection = "keep-alive"
	} else if !req.ProtoAtLeast(1, 1) || w.wantsClose {
		closeAfter = true
	}
	b := w.body
	if w.expectContinue && !b.sawEOF {
		closeAfter = true // the client offered a body the handler did not read
	}
	if b != nil && !b.sawEOF && !closeAfter {
		// Read what the handler left of the body, up to 256 KB, to keep
		// the connection; more, or a broken body, closes it.
		if b.closed {
			closeAfter = true
		} else if _, err := io.CopyN(io.Discard, b.rc, maxPostHandlerReadBytes+1); err == io.EOF {
			b.sawEOF = true
		} else {
			closeAfter = true
		}
	}
	if closeAfter && req.ProtoAtLeast(1, 1) {
		connection = "close"
	}

	out := c.out
	now := time.Now()
	if sec := now.Unix(); sec != c.dateSec || c.date == nil {
		c.dateSec = sec
		c.date = now.UTC().AppendFormat(c.date[:0], http.TimeFormat)
	}
	out = append(append(append(out, "Date: "...), c.date...), "\r\n"...)
	if hasCL {
		out = append(out, "Content-Length: "...)
		out = strconv.AppendInt(out, int64(len(w.buf)), 10)
		out = append(out, "\r\n"...)
	}
	if connection != "" {
		out = append(append(append(out, "Connection: "...), connection...), "\r\n"...)
	}
	out = append(out, "\r\n"...)
	if !isHEAD && bodyAllowed {
		out = append(out, w.buf...)
	}
	_, werr := c.rwc.Write(out)
	c.out = recycle(out)
	w.buf = recycle(w.buf)
	if werr != nil {
		return false
	}
	if closeAfter {
		if b != nil && !b.sawEOF && !(w.expectContinue && !w.continueSent) {
			// Request bytes are left unread: closing now would reset the
			// connection, and the client could lose the answer.
			c.closeWriteAndWait()
		}
		return false
	}
	return true
}

// recycle empties a buffer for the next request, dropping one an
// outsized answer grew past 64 KB.
func recycle(b []byte) []byte {
	if cap(b) > 64<<10 {
		return nil
	}
	return b[:0]
}

// bodyAllowedForStatus reports whether a status may carry a body.
func bodyAllowedForStatus(status int) bool {
	switch {
	case status >= 100 && status <= 199:
		return false
	case status == http.StatusNoContent, status == http.StatusNotModified:
		return false
	}
	return true
}

// response is the http.ResponseWriter a connection reuses for each of
// its requests: the status line and the handler's headers are appended
// to the connection's output when the header is written (so later
// header changes are ignored, as net/http ignores them), the body to
// buf. The loop writes the framing headers (framingHeaders) itself.
type response struct {
	c           *conn
	req         *http.Request
	header      http.Header
	buf         []byte
	body        *reqBody // nil: the request has no body
	status      int
	wroteHeader bool

	// What the request asked, read before the handler runs.
	wants10KeepAlive, wantsClose bool
	// expectContinue: the client waits for a 100 Continue before its
	// body; continuePending: it is still owed, sent on the first body
	// read unless the answer has begun.
	expectContinue, continuePending, continueSent bool
}

func (w *response) reset(req *http.Request) {
	clear(w.header)
	*w = response{
		c: w.c, req: req, header: w.header, buf: w.buf,
		wants10KeepAlive: req.ProtoMajor == 1 && req.ProtoMinor == 0 && hasToken(req.Header.Get("Connection"), "keep-alive"),
		wantsClose:       req.Close || hasToken(req.Header.Get("Connection"), "close"),
	}
}

// Header implements http.ResponseWriter.
func (w *response) Header() http.Header { return w.header }

// framingHeaders are the headers the loop writes itself; a handler's
// own are dropped.
var framingHeaders = map[string]bool{"Connection": true, "Content-Length": true, "Date": true, "Transfer-Encoding": true}

// WriteHeader implements http.ResponseWriter.
func (w *response) WriteHeader(code int) {
	if code < 100 || code > 999 {
		panic(fmt.Sprintf("invalid WriteHeader code %v", code))
	}
	if w.wroteHeader {
		return
	}
	w.wroteHeader, w.status = true, code
	out := w.c.out[:0]
	if w.req.ProtoAtLeast(1, 1) {
		out = append(out, "HTTP/1.1 "...)
	} else {
		out = append(out, "HTTP/1.0 "...)
	}
	if text := http.StatusText(code); text != "" {
		out = strconv.AppendInt(out, int64(code), 10)
		out = append(append(append(out, ' '), text...), "\r\n"...)
	} else {
		out = fmt.Appendf(out, "%03d status code %d\r\n", code, code)
	}
	ob := outBuf{out}
	w.header.WriteSubset(&ob, framingHeaders)
	w.c.out = ob.b
}

// Write implements http.ResponseWriter.
func (w *response) Write(p []byte) (int, error) {
	if !w.wroteHeader {
		w.WriteHeader(http.StatusOK)
	}
	if !bodyAllowedForStatus(w.status) {
		return 0, http.ErrBodyNotAllowed
	}
	w.continuePending = false // net/http sends no 100 Continue once the answer has begun
	w.buf = append(w.buf, p...)
	return len(p), nil
}

// outBuf is the io.Writer Header.WriteSubset appends to.
type outBuf struct{ b []byte }

func (o *outBuf) Write(p []byte) (int, error) {
	o.b = append(o.b, p...)
	return len(p), nil
}

func (o *outBuf) WriteString(s string) (int, error) {
	o.b = append(o.b, s...)
	return len(s), nil
}

// reqBody is the request body the handler reads: net/http's framed
// body, plus the 100 Continue owed before the first read and the end
// of the body, which lets the disconnect watch begin.
type reqBody struct {
	w      *response
	rc     io.ReadCloser
	ctx    *reqCtx
	sawEOF bool
	closed bool
}

func (b *reqBody) Read(p []byte) (int, error) {
	if b.closed {
		return 0, http.ErrBodyReadAfterClose
	}
	if w := b.w; w.continuePending {
		w.continuePending, w.continueSent = false, true
		if _, err := io.WriteString(w.c.rwc, "HTTP/1.1 100 Continue\r\n\r\n"); err != nil {
			return 0, err
		}
	}
	n, err := b.rc.Read(p)
	if err == io.EOF && !b.sawEOF {
		b.sawEOF = true
		b.ctx.bodyRead()
	}
	return n, err
}

// Close marks the body closed; the loop reads or drops what is left.
func (b *reqBody) Close() error {
	b.closed = true
	return nil
}

// connReader is what the connection's bufio.Reader reads: the socket,
// behind the header-size limit and the byte a background read took.
type connReader struct {
	c       *conn
	remain  int64 // bytes the current read may still take; math.MaxInt64 outside headers
	hasByte bool
	byteBuf [1]byte
	ctx     *reqCtx // the request being served, cancelled by a read error
}

func (r *connReader) Read(p []byte) (int, error) {
	if r.remain <= 0 {
		return 0, io.EOF
	}
	if len(p) == 0 {
		return 0, nil
	}
	if int64(len(p)) > r.remain {
		p = p[:r.remain]
	}
	if r.hasByte {
		p[0], r.hasByte = r.byteBuf[0], false
		r.remain--
		return 1, nil
	}
	n, err := r.c.rwc.Read(p)
	r.remain -= int64(n)
	if err != nil && r.ctx != nil {
		r.ctx.cancel(context.Canceled)
	}
	return n, err
}

// leadingCRLF counts the CR and LF bytes that begin b.
func leadingCRLF(b []byte) int {
	n := 0
	for _, c := range b {
		if c != '\r' && c != '\n' {
			break
		}
		n++
	}
	return n
}

// hasToken reports whether the comma-separated header value v holds
// token, ignoring case, as net/http's hasToken does.
func hasToken(v, token string) bool {
	for v != "" {
		var elem string
		elem, v, _ = strings.Cut(v, ",")
		if strings.EqualFold(strings.Trim(elem, " \t"), token) {
			return true
		}
	}
	return false
}

// validHostByte is net/http's set of bytes a Host header may hold.
var validHostByte = func() (t [256]bool) {
	for _, c := range "0123456789abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ!$%&()*+,-.:;=['_]~" {
		t[c] = true
	}
	return t
}()

// reqCtx is a request's context. Once the request's body has been
// read, its Err peeks at the socket without blocking: a peer that has
// closed or reset the connection cancels the request. Done starts a
// watcher only when something asks for it. It has no deadline: the
// handler wraps it in context.WithTimeout for a ?budget=.
type reqCtx struct {
	c      *conn
	mu     sync.Mutex
	err    error
	done   chan struct{} // made by Done
	watch  bool          // the body has been read: a closed socket means the client left
	bgDone chan struct{} // a background read is running until this closes
}

// Deadline implements context.Context: there is none.
func (x *reqCtx) Deadline() (time.Time, bool) { return time.Time{}, false }

// Value implements context.Context: the loop stores no values.
func (x *reqCtx) Value(any) any { return nil }

// Err implements context.Context.
func (x *reqCtx) Err() error {
	x.mu.Lock()
	defer x.mu.Unlock()
	if x.err == nil && x.watch && x.bgDone == nil && x.c.peek != nil {
		switch x.c.peek.peek() {
		case peerGone:
			x.cancelLocked(context.Canceled)
		case peerSentMore:
			// The next request has begun arriving: the client is there,
			// and net/http would stop watching too.
			x.watch = false
		}
	}
	return x.err
}

// Done implements context.Context.
func (x *reqCtx) Done() <-chan struct{} {
	x.mu.Lock()
	defer x.mu.Unlock()
	if x.done == nil {
		x.done = make(chan struct{})
		if x.err != nil {
			close(x.done)
		} else {
			x.startWatchLocked()
		}
	}
	return x.done
}

// bodyRead marks the request's body read to its end (or absent): from
// here on, a closed socket means the client went away.
func (x *reqCtx) bodyRead() {
	x.mu.Lock()
	defer x.mu.Unlock()
	x.watch = true
	x.startWatchLocked()
}

// startWatchLocked starts the background read that watches the socket
// while the handler runs: on a connection the loop can peek, only once
// something waits on Done; on any other, for every request, as
// net/http does. Like net/http's, the read runs without the read
// deadline the request's first byte set: a handler may outlast it.
func (x *reqCtx) startWatchLocked() {
	if !x.watch || x.bgDone != nil || x.err != nil || x.c.peek != nil && x.done == nil {
		return
	}
	x.bgDone = make(chan struct{})
	x.c.rwc.SetReadDeadline(time.Time{})
	go x.backgroundRead()
}

// backgroundRead reads one byte: the next request's first (kept for
// it) or the end of the connection, which cancels the request.
func (x *reqCtx) backgroundRead() {
	r := &x.c.r
	n, err := x.c.rwc.Read(r.byteBuf[:])
	if n == 1 {
		r.hasByte = true
	} else if err != nil {
		x.cancel(context.Canceled)
	}
	close(x.bgDone)
}

func (x *reqCtx) cancel(err error) {
	x.mu.Lock()
	defer x.mu.Unlock()
	x.cancelLocked(err)
}

func (x *reqCtx) cancelLocked(err error) {
	if x.err != nil {
		return
	}
	x.err = err
	if x.done != nil {
		close(x.done)
	}
}

// aLongTimeAgo is a read deadline that ends a blocked read at once.
var aLongTimeAgo = time.Unix(1, 0)

// finish ends the request's context once the handler has returned and
// stops its background read, if one runs.
func (x *reqCtx) finish() {
	x.mu.Lock()
	x.cancelLocked(context.Canceled)
	bg := x.bgDone
	x.mu.Unlock()
	c := x.c
	c.r.ctx = nil
	if bg != nil {
		c.rwc.SetReadDeadline(aLongTimeAgo)
		<-bg
		c.rwc.SetReadDeadline(time.Time{})
	}
}

// peekResult is what a look at a socket's receive queue found.
type peekResult uint8

const (
	peerQuiet    peekResult = iota // nothing to read: the client waits
	peerGone                       // the client closed or reset the connection
	peerSentMore                   // bytes wait: the client is sending its next request
)
