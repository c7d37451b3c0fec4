package rpc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"net"
	"reflect"
	"sync/atomic"
	"testing"
	"time"
)

// trickyFloats exercise the bit-exactness seam: negative zero,
// denormals, and values whose decimal round-trip would differ.
var trickyFloats = []float64{
	0, math.Copysign(0, -1), 1.0 / 3.0, 5e-324, -5e-324,
	math.Nextafter(1, 2), 0.1 + 0.2, 1e308, -2.2250738585072014e-308,
}

func TestSolveCodecRoundTrip(t *testing.T) {
	idx := []int{0, 3, 7, 12}
	val := trickyFloats[:4]
	req := AppendSolveRequest(nil, 42, 3, idx, val)
	epoch, shard, gotIdx, gotVal, err := DecodeSolveRequest(req)
	if err != nil {
		t.Fatal(err)
	}
	if epoch != 42 || shard != 3 || !reflect.DeepEqual(gotIdx, idx) {
		t.Fatalf("request decoded to epoch=%d shard=%d idx=%v", epoch, shard, gotIdx)
	}
	for i, v := range gotVal {
		if math.Float64bits(v) != math.Float64bits(val[i]) {
			t.Fatalf("val[%d]: %x != %x", i, math.Float64bits(v), math.Float64bits(val[i]))
		}
	}

	// Sparse reply: support order must come back verbatim, untouched
	// rows must keep their stale values.
	y := []float64{0, 10, 20, 30, 40, 50, 60, 70, 80}
	ysup := []int{5, 2, 8} // first-touch order, deliberately unsorted
	resp := AppendSolveResponse(nil, y, ysup, len(y))
	scratch := []float64{-1, -1, -1, -1, -1, -1, -1, -1, -1}
	gotSup, err := DecodeSolveResponse(resp, scratch)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotSup, ysup) {
		t.Fatalf("support order changed: %v != %v", gotSup, ysup)
	}
	for _, lv := range ysup {
		if scratch[lv] != y[lv] {
			t.Fatalf("row %d: %v != %v", lv, scratch[lv], y[lv])
		}
	}
	if scratch[0] != -1 || scratch[1] != -1 {
		t.Fatalf("rows outside the support were written: %v", scratch)
	}

	// Dense reply fills the leading rows and returns a nil support.
	resp = AppendSolveResponse(nil, trickyFloats, nil, len(trickyFloats))
	dense := make([]float64, len(trickyFloats))
	gotSup, err = DecodeSolveResponse(resp, dense)
	if err != nil {
		t.Fatal(err)
	}
	if gotSup != nil {
		t.Fatalf("dense reply returned a support: %v", gotSup)
	}
	for i, v := range dense {
		if math.Float64bits(v) != math.Float64bits(trickyFloats[i]) {
			t.Fatalf("dense row %d lost bits", i)
		}
	}
}

func TestControlCodecs(t *testing.T) {
	h := HelloResponse{N: 1 << 40, Shards: 16, Epoch: 9}
	got, err := DecodeHelloResponse(AppendHelloResponse(nil, h))
	if err != nil || got != h {
		t.Fatalf("hello: %+v err=%v", got, err)
	}
	delta := []byte{1, 2, 3, 4, 5}
	epoch, gotDelta, err := DecodePrepareRequest(AppendPrepareRequest(nil, 12, delta))
	if err != nil || epoch != 12 || !reflect.DeepEqual(gotDelta, delta) {
		t.Fatalf("prepare: epoch=%d delta=%v err=%v", epoch, gotDelta, err)
	}
	e, err := DecodeEpochRequest(AppendEpochRequest(nil, 99))
	if err != nil || e != 99 {
		t.Fatalf("epoch: %d err=%v", e, err)
	}
}

func TestDecodeRejectsTruncation(t *testing.T) {
	req := AppendSolveRequest(nil, 1, 2, []int{1, 2, 3}, []float64{1, 2, 3})
	for cut := 0; cut < len(req); cut++ {
		if _, _, _, _, err := DecodeSolveRequest(req[:cut]); err == nil && cut < len(req) {
			// A shorter prefix can still be a valid smaller message only
			// if the length field shrank with it; with a fixed header
			// every strict prefix must fail.
			t.Fatalf("truncated request at %d bytes decoded cleanly", cut)
		}
	}
	resp := AppendSolveResponse(nil, []float64{0, 1, 2}, []int{2, 0}, 3)
	y := make([]float64, 3)
	for cut := 0; cut < len(resp); cut++ {
		if _, err := DecodeSolveResponse(resp[:cut], y); err == nil {
			t.Fatalf("truncated response at %d bytes decoded cleanly", cut)
		}
	}
}

// echoHandler sums the request bytes and echoes body+sum so a torn or
// replayed call is detectable as a wrong answer.
type echoHandler struct {
	calls atomic.Int64
	sleep time.Duration
}

func (h *echoHandler) Handle(op uint8, body []byte) ([]byte, error) {
	h.calls.Add(1)
	if h.sleep > 0 {
		time.Sleep(h.sleep)
	}
	switch op {
	case OpPing:
		return nil, nil
	case OpHello:
		return AppendHelloResponse(nil, HelloResponse{N: 10, Shards: 2, Epoch: 1}), nil
	case OpSolve:
		var sum uint64
		for _, b := range body {
			sum += uint64(b)
		}
		out := append([]byte(nil), body...)
		return binary.LittleEndian.AppendUint64(out, sum), nil
	case OpCommit:
		return nil, ErrWrongEpoch
	default:
		return nil, fmt.Errorf("boom op %d", op)
	}
}

func startServer(t *testing.T, h Handler) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go Serve(ln, h) //nolint:errcheck // closes with the listener
	t.Cleanup(func() { ln.Close() })
	return ln.Addr().String()
}

func TestClientBasics(t *testing.T) {
	h := &echoHandler{}
	addr := startServer(t, h)
	c := NewClient(addr, nil, time.Second)
	defer c.Close()

	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	hello, err := c.Hello()
	if err != nil || hello.N != 10 || hello.Shards != 2 || hello.Epoch != 1 {
		t.Fatalf("hello %+v err=%v", hello, err)
	}
	if _, err := c.Call(OpCommit, nil); !errors.Is(err, ErrWrongEpoch) {
		t.Fatalf("want ErrWrongEpoch, got %v", err)
	}
	if _, err := c.Call(OpAbort, nil); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("handler error should wrap ErrUnavailable, got %v", err)
	}
	// Handler errors must not be retried: the worker answered.
	before := h.calls.Load()
	c.Call(OpAbort, nil) //nolint:errcheck // error path under test
	if h.calls.Load() != before+1 {
		t.Fatalf("deterministic rejection was retried: %d calls", h.calls.Load()-before)
	}
}

func TestClientTimeoutIsUnavailable(t *testing.T) {
	addr := startServer(t, &echoHandler{sleep: 500 * time.Millisecond})
	c := NewClient(addr, nil, 50*time.Millisecond)
	defer c.Close()
	if _, err := c.Call(OpSolve, []byte{1}); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("timeout should map to ErrUnavailable, got %v", err)
	}
}

func TestClientDialFailureIsUnavailable(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close() // nothing listens here any more
	c := NewClient(addr, nil, time.Second)
	defer c.Close()
	if _, err := c.Call(OpPing, nil); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("dial failure should map to ErrUnavailable, got %v", err)
	}
}

func TestClientRetriesTornConnection(t *testing.T) {
	// First connection accepted and slammed shut; the client's single
	// internal retry must transparently recover on the second.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	h := &echoHandler{}
	var conns atomic.Int64
	go func() {
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			if conns.Add(1) == 1 {
				nc.Close()
				continue
			}
			go ServeConn(nc, h)
		}
	}()
	c := NewClient(ln.Addr().String(), nil, time.Second)
	defer c.Close()
	body := []byte{9, 8, 7}
	resp, err := c.Call(OpSolve, body)
	if err != nil {
		t.Fatalf("retry should have recovered: %v", err)
	}
	if len(resp) != len(body)+8 {
		t.Fatalf("short response: %d bytes", len(resp))
	}
}

// TestFaultyNeverWrong is the satellite-1 acceptance test: under
// seeded drops, delays, and truncations, every call either returns the
// exact expected bytes or a typed ErrUnavailable — never a wrong
// answer, and never an untyped error.
func TestFaultyNeverWrong(t *testing.T) {
	addr := startServer(t, &echoHandler{})
	for _, f := range []Faults{
		{Seed: 1, DropProb: 0.3},
		{Seed: 2, TruncProb: 0.3},
		{Seed: 3, DropProb: 0.15, TruncProb: 0.15, DelayProb: 0.2, MaxDelay: time.Millisecond},
	} {
		c := NewClient(addr, FaultyDialer(nil, f), time.Second)
		ok, unavailable := 0, 0
		for i := 0; i < 200; i++ {
			body := []byte{byte(i), byte(i >> 3), byte(i * 7)}
			resp, err := c.Call(OpSolve, body)
			if err != nil {
				if !errors.Is(err, ErrUnavailable) {
					t.Fatalf("faults %+v call %d: untyped error %v", f, i, err)
				}
				unavailable++
				continue
			}
			ok++
			var sum uint64
			for _, b := range body {
				sum += uint64(b)
			}
			want := binary.LittleEndian.AppendUint64(append([]byte(nil), body...), sum)
			if !reflect.DeepEqual(resp, want) {
				t.Fatalf("faults %+v call %d: WRONG ANSWER %v != %v", f, i, resp, want)
			}
		}
		c.Close()
		if ok == 0 {
			t.Fatalf("faults %+v: no call ever succeeded (retry path dead?)", f)
		}
		t.Logf("faults %+v: %d ok, %d unavailable", f, ok, unavailable)
	}
}

func TestFrameLimit(t *testing.T) {
	srv, cli := net.Pipe()
	defer srv.Close()
	defer cli.Close()
	go func() {
		var hdr [4]byte
		binary.LittleEndian.PutUint32(hdr[:], maxFrame+1)
		srv.Write(hdr[:]) //nolint:errcheck // test writer
	}()
	if _, err := ReadFrame(cli, nil); err == nil {
		t.Fatal("oversized frame accepted")
	}
}

// TestClientClose: Close drops the idle pool, new calls fail typed,
// a double Close is harmless, and a checked-out connection returned
// after Close is closed rather than re-pooled.
func TestClientClose(t *testing.T) {
	addr := startServer(t, &echoHandler{})
	c := NewClient(addr, nil, time.Second)
	if err := c.Ping(); err != nil {
		t.Fatal(err) // seeds one idle connection for Close to drop
	}
	cn, err := c.checkout()
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
	c.Close()
	c.checkin(cn) // post-Close checkin must close, not re-pool
	if len(c.idle) != 0 {
		t.Fatalf("connection re-pooled after Close (%d idle)", len(c.idle))
	}
	if err := c.Ping(); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("call on closed client: %v, want ErrUnavailable", err)
	}
}
