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
	// Two right-hand sides carved out of flat arrays whose pointers do
	// not start at 0 — the coordinator sends the tail of its recorded
	// solves this way — plus an empty one.
	rows := []int{9, 0, 4}
	ptr := []int{1, 3, 6, 6}
	idx := []int{99, 0, 3, 1, 7, 12, 99}
	val := append([]float64{42}, trickyFloats[:6]...)
	req := AppendSolveRowsRequest(nil, 42, 3, rows, ptr, idx, val)
	var got SolveRowsRequest
	if err := DecodeSolveRowsRequest(req, &got); err != nil {
		t.Fatal(err)
	}
	if got.Epoch != 42 || got.Shard != 3 || !reflect.DeepEqual(got.Rows, rows) {
		t.Fatalf("request decoded to epoch=%d shard=%d rows=%v", got.Epoch, got.Shard, got.Rows)
	}
	if !reflect.DeepEqual(got.Ptr, []int{0, 2, 5, 5}) || !reflect.DeepEqual(got.Idx, idx[1:6]) {
		t.Fatalf("right-hand sides decoded to ptr=%v idx=%v", got.Ptr, got.Idx)
	}
	for i, v := range got.Val {
		if math.Float64bits(v) != math.Float64bits(val[1+i]) {
			t.Fatalf("val[%d]: %x != %x", i, math.Float64bits(v), math.Float64bits(val[1+i]))
		}
	}
	// Decoding a smaller request into the same struct (a worker reuses
	// its requests) leaves nothing of the larger one behind.
	small := AppendSolveRowsRequest(nil, 7, 1, []int{2}, []int{0, 1}, []int{5}, []float64{0.5})
	if err := DecodeSolveRowsRequest(small, &got); err != nil {
		t.Fatal(err)
	}
	want := SolveRowsRequest{Epoch: 7, Shard: 1, Rows: []int{2}, Ptr: []int{0, 1}, Idx: []int{5}, Val: []float64{0.5}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("reused decode = %+v, want %+v", got, want)
	}

	// The reply carries raw bits in request order — NaN payloads, -0
	// and subnormals included — behind the worker's elapsed time.
	vals := append(append([]float64(nil), trickyFloats...),
		math.Float64frombits(0x7ff8_dead_beef_0001), math.Float64frombits(0xfff0_0000_0000_0002))
	resp := AppendSolveRowsResponse(nil, 12345, vals)
	if len(resp) != SolveRowsReplyHeader+8*len(vals) {
		t.Fatalf("reply is %d bytes, want %d", len(resp), SolveRowsReplyHeader+8*len(vals))
	}
	out := make([]float64, len(vals))
	ns, err := DecodeSolveRowsResponse(resp, out)
	if err != nil || ns != 12345 {
		t.Fatalf("reply decoded to ns=%d err=%v", ns, err)
	}
	for i, v := range out {
		if math.Float64bits(v) != math.Float64bits(vals[i]) {
			t.Fatalf("value %d lost bits: %x != %x", i, math.Float64bits(v), math.Float64bits(vals[i]))
		}
	}
	if _, err := DecodeSolveRowsResponse(resp, out[:len(out)-1]); err == nil {
		t.Fatal("a reply longer than the values asked for decoded cleanly")
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
	req := AppendSolveRowsRequest(nil, 1, 2, []int{4, 5}, []int{0, 2, 3}, []int{1, 2, 3}, []float64{1, 2, 3})
	for cut := 0; cut < len(req); cut++ {
		// Every count is checked against the bytes behind it, so no
		// strict prefix decodes as a smaller valid message.
		if err := DecodeSolveRowsRequest(req[:cut], &SolveRowsRequest{}); err == nil {
			t.Fatalf("truncated request at %d bytes decoded cleanly", cut)
		}
	}
	if err := DecodeSolveRowsRequest(append(req, 0), &SolveRowsRequest{}); err == nil {
		t.Fatal("request with a trailing byte decoded cleanly")
	}
	resp := AppendSolveRowsResponse(nil, 7, []float64{0, 1, 2})
	out := make([]float64, 3)
	for cut := 0; cut < len(resp); cut++ {
		if _, err := DecodeSolveRowsResponse(resp[:cut], out); err == nil {
			t.Fatalf("truncated response at %d bytes decoded cleanly", cut)
		}
	}
}

// TestSolveRowsRequestBombs: headers whose counts promise more than the
// frame carries — or a reply larger than a frame — are rejected before
// anything is allocated.
func TestSolveRowsRequestBombs(t *testing.T) {
	head := func(nrows uint32) []byte {
		b := binary.LittleEndian.AppendUint64(nil, 1)
		b = binary.LittleEndian.AppendUint32(b, 0)
		return binary.LittleEndian.AppendUint32(b, nrows)
	}
	// 4e9 rows promised, none carried.
	if err := DecodeSolveRowsRequest(head(math.MaxUint32), &SolveRowsRequest{}); err == nil {
		t.Fatal("row-count bomb accepted")
	}
	// One row, 4e9 right-hand sides promised.
	b := binary.LittleEndian.AppendUint32(head(1), 0)
	if err := DecodeSolveRowsRequest(binary.LittleEndian.AppendUint32(b, math.MaxUint32), &SolveRowsRequest{}); err == nil {
		t.Fatal("rhs-count bomb accepted")
	}
	// One rhs of 4e9 entries promised.
	b = binary.LittleEndian.AppendUint32(binary.LittleEndian.AppendUint32(head(0), 1), math.MaxUint32)
	if err := DecodeSolveRowsRequest(b, &SolveRowsRequest{}); err == nil {
		t.Fatal("rhs-length bomb accepted")
	}
	// Small on the wire, but the reply (rows × rhs values) would not
	// fit in a frame: 2^16 rows × 2^16 empty right-hand sides.
	const n = 1 << 16
	b = head(n)
	b = append(b, make([]byte, 4*n)...)
	b = binary.LittleEndian.AppendUint32(b, n)
	b = append(b, make([]byte, 4*n)...)
	if err := DecodeSolveRowsRequest(b, &SolveRowsRequest{}); err == nil {
		t.Fatal("reply-size bomb accepted")
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
	case OpSolveRows:
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
	if _, err := c.Call(OpSolveRows, []byte{1}); !errors.Is(err, ErrUnavailable) {
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
	resp, err := c.Call(OpSolveRows, body)
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
			resp, err := c.Call(OpSolveRows, body)
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
