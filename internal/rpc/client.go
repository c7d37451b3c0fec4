package rpc

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"
)

// DialFunc opens a connection to a worker. The differential harness
// swaps in FaultyDialer here to inject drops, delays, and truncations.
type DialFunc func(addr string) (net.Conn, error)

// NetDial is the production DialFunc: plain TCP with a connect timeout.
func NetDial(addr string) (net.Conn, error) {
	return net.DialTimeout("tcp", addr, 5*time.Second)
}

// Client is a pooled framed-RPC client for one worker address. It is
// safe for concurrent use: each in-flight call checks a connection out
// of the idle pool (or dials a fresh one) and returns it on success.
// Any transport error closes the connection, redials, and retries the
// call once; a second failure comes back wrapped in ErrUnavailable.
//
// The retry is safe for every op in the protocol: solves are pure reads
// against an immutable epoch, and Prepare/Commit/Abort are idempotent
// on the worker side.
type Client struct {
	addr    string
	dial    DialFunc
	timeout time.Duration

	mu     sync.Mutex
	idle   []*Conn
	closed bool
}

// NewClient builds a client for addr. A nil dial uses NetDial; a zero
// timeout defaults to 30s per call. A query's solves return a few
// hundred rows each and finish in microseconds; the default covers the
// slowest legitimate calls instead — a Prepare that refactorizes dirty
// shards, and the first solve against a shard the worker must open.
func NewClient(addr string, dial DialFunc, timeout time.Duration) *Client {
	if dial == nil {
		dial = NetDial
	}
	if timeout <= 0 {
		timeout = 30 * time.Second
	}
	return &Client{addr: addr, dial: dial, timeout: timeout}
}

// Addr reports the worker address this client targets.
func (c *Client) Addr() string { return c.addr }

// Close drops all idle connections. In-flight calls finish on their
// checked-out connections; new calls fail with ErrUnavailable.
func (c *Client) Close() {
	c.mu.Lock()
	idle := c.idle
	c.idle = nil
	c.closed = true
	c.mu.Unlock()
	for _, cn := range idle {
		cn.Close()
	}
}

// checkout returns an idle connection or dials a new one.
func (c *Client) checkout() (*Conn, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, fmt.Errorf("%w: client for %s closed", ErrUnavailable, c.addr)
	}
	if n := len(c.idle); n > 0 {
		cn := c.idle[n-1]
		c.idle = c.idle[:n-1]
		c.mu.Unlock()
		return cn, nil
	}
	c.mu.Unlock()
	nc, err := c.dial(c.addr)
	if err != nil {
		return nil, err
	}
	return NewConn(nc), nil
}

// checkin returns a healthy connection to the idle pool.
func (c *Client) checkin(cn *Conn) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		cn.Close()
		return
	}
	c.idle = append(c.idle, cn)
	c.mu.Unlock()
}

// roundTrip sends one whole frame (from beginFrame/endFrame) on cn and
// reads the response frame.
func (cn *Conn) roundTrip(deadline time.Time, frame []byte) ([]byte, error) {
	if err := cn.c.SetDeadline(deadline); err != nil {
		return nil, err
	}
	if _, err := cn.c.Write(frame); err != nil {
		return nil, err
	}
	resp, err := ReadFrame(cn.c, cn.buf)
	if err != nil {
		return nil, err
	}
	cn.buf = resp
	return resp, nil
}

// Call sends op with body and returns the response body as a
// caller-owned copy (the wire frame lands in the connection's reusable
// read buffer, which a concurrent Call may overwrite the instant the
// connection re-enters the idle pool). Transport failures are retried
// once on a fresh connection and then reported as ErrUnavailable;
// StatusWrongEpoch maps to ErrWrongEpoch; StatusError carries the
// worker's message.
func (c *Client) Call(op uint8, body []byte) ([]byte, error) {
	req := beginFrame(make([]byte, 0, 5+len(body)))
	req = append(req, op)
	req = endFrame(append(req, body...))

	var lastErr error
	for attempt := 0; attempt < 2; attempt++ {
		cn, err := c.checkout()
		if err != nil {
			lastErr = err
			continue
		}
		resp, err := cn.roundTrip(time.Now().Add(c.timeout), req)
		if err != nil {
			cn.Close()
			lastErr = err
			continue
		}
		if len(resp) < 1 {
			cn.Close()
			lastErr = errors.New("empty response frame")
			continue
		}
		status, rest := resp[0], resp[1:]
		switch status {
		case StatusOK:
			// Copy out of the read buffer BEFORE the checkin: once the
			// conn is back in the pool another goroutine can check it
			// out and overwrite the buffer under the caller's decode.
			out := append([]byte(nil), rest...)
			c.checkin(cn)
			return out, nil
		case StatusWrongEpoch:
			c.checkin(cn)
			return nil, ErrWrongEpoch
		default:
			// The worker answered; the call itself was rejected. The
			// connection is healthy — keep it — but do not retry: a
			// deterministic rejection will not heal on a second try.
			c.checkin(cn)
			return nil, fmt.Errorf("%w: %s: %s", ErrUnavailable, c.addr, string(rest))
		}
	}
	return nil, fmt.Errorf("%w: %s: %v", ErrUnavailable, c.addr, lastErr)
}

// Hello performs the identity handshake.
func (c *Client) Hello() (HelloResponse, error) {
	resp, err := c.Call(OpHello, nil)
	if err != nil {
		return HelloResponse{}, err
	}
	return DecodeHelloResponse(resp)
}

// Ping probes liveness.
func (c *Client) Ping() error {
	_, err := c.Call(OpPing, nil)
	return err
}
