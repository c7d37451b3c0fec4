// Package rpc is the coordinator <-> worker wire protocol for
// distributed shard serving: a length-prefixed binary framing over
// stdlib net, a handful of fixed opcodes, and hand-rolled little-endian
// codecs for the solve and epoch-publish payloads.
//
// The protocol exists to move *bits*, not numbers: float64 values cross
// the wire as their raw IEEE-754 bit patterns (math.Float64bits) and
// solve supports preserve the solver's first-touch order verbatim — so
// a coordinator that feeds remote solve results into the greedy push
// commits exactly the bytes a single process would have produced. See
// docs/ARCHITECTURE.md, "Distributed serving".
package rpc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
)

// Opcodes. The request payload is one opcode byte followed by the
// op-specific body; the response is one status byte followed by either
// the op-specific body (StatusOK) or an error string.
const (
	OpHello uint8 = 1 // -> n, shards, epoch of the worker's index
	OpSolve uint8 = 2 // single-lane sparse solve against one shard
	// 3 was OpBatchSolve, the multi-lane block solve. Retired, never
	// reused: a worker answers it with the unknown-op error.
	OpPrepare uint8 = 4 // stage delta as epoch E (two-phase publish, phase 1)
	OpCommit  uint8 = 5 // publish staged epoch E (phase 2)
	OpAbort   uint8 = 6 // drop staged epoch E
	OpPing    uint8 = 7 // liveness probe
)

// Response status bytes.
const (
	StatusOK         uint8 = 0
	StatusError      uint8 = 1
	StatusWrongEpoch uint8 = 2 // the requested epoch is not resident on the worker
)

// ErrUnavailable marks transport-level failures (dial, torn connection,
// timeout) and worker-side refusals the coordinator cannot serve
// through: the server maps it to 503 with Retry-After, never to a wrong
// answer.
var ErrUnavailable = errors.New("rpc: worker unavailable")

// ErrWrongEpoch reports a solve against an epoch the worker does not
// hold — the coordinator's cue to replay the update chain to that
// worker before retrying.
var ErrWrongEpoch = errors.New("rpc: epoch not resident on worker")

// maxFrame bounds a single frame so a torn or hostile length prefix
// cannot ask for an absurd allocation. Dense solve replies over large
// shards are the biggest legitimate frames; 1 GiB is far above any of
// them.
const maxFrame = 1 << 30

// WriteFrame writes one length-prefixed frame.
func WriteFrame(w io.Writer, payload []byte) error {
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// ReadFrame reads one length-prefixed frame, appending into buf's
// backing array when it has capacity.
func ReadFrame(r io.Reader, buf []byte) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	if n > maxFrame {
		return nil, fmt.Errorf("rpc: frame length %d exceeds limit", n)
	}
	if uint32(cap(buf)) < n {
		buf = make([]byte, n)
	} else {
		buf = buf[:n]
	}
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// Conn wraps one framed request/response connection.
type Conn struct {
	c   net.Conn
	buf []byte
}

// NewConn wraps a net.Conn for framed use.
func NewConn(c net.Conn) *Conn { return &Conn{c: c} }

// Close closes the underlying connection.
func (c *Conn) Close() error { return c.c.Close() }

// appendUint32 appends v little-endian.
func appendUint32(buf []byte, v uint32) []byte {
	return binary.LittleEndian.AppendUint32(buf, v)
}

// appendUint64 appends v little-endian.
func appendUint64(buf []byte, v uint64) []byte {
	return binary.LittleEndian.AppendUint64(buf, v)
}

// appendFloat64 appends v's raw IEEE-754 bits — the bit-exactness seam.
func appendFloat64(buf []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
}

// reader is a bounds-checked little-endian cursor over a frame body.
type reader struct {
	data []byte
	off  int
	err  error
}

func (r *reader) fail() {
	if r.err == nil {
		r.err = fmt.Errorf("rpc: truncated frame body (%d bytes, offset %d)", len(r.data), r.off)
	}
}

func (r *reader) uint32() uint32 {
	if r.err != nil || r.off+4 > len(r.data) {
		r.fail()
		return 0
	}
	v := binary.LittleEndian.Uint32(r.data[r.off:])
	r.off += 4
	return v
}

func (r *reader) uint64() uint64 {
	if r.err != nil || r.off+8 > len(r.data) {
		r.fail()
		return 0
	}
	v := binary.LittleEndian.Uint64(r.data[r.off:])
	r.off += 8
	return v
}

func (r *reader) float64() float64 { return math.Float64frombits(r.uint64()) }

// rest returns the unread tail of the body.
func (r *reader) rest() []byte {
	if r.err != nil {
		return nil
	}
	return r.data[r.off:]
}

// HelloResponse reports the worker index's identity: the coordinator
// verifies n and shards match its own manifest and uses epoch to decide
// how much of the update chain to replay.
type HelloResponse struct {
	N      int
	Shards int
	Epoch  int
}

// AppendHelloResponse encodes a HelloResponse.
func AppendHelloResponse(buf []byte, h HelloResponse) []byte {
	buf = appendUint64(buf, uint64(h.N))
	buf = appendUint32(buf, uint32(h.Shards))
	buf = appendUint64(buf, uint64(h.Epoch))
	return buf
}

// DecodeHelloResponse decodes a HelloResponse.
func DecodeHelloResponse(data []byte) (HelloResponse, error) {
	r := reader{data: data}
	h := HelloResponse{N: int(r.uint64()), Shards: int(r.uint32()), Epoch: int(r.uint64())}
	return h, r.err
}

// AppendSolveRequest encodes a single-lane solve: the target epoch and
// shard plus the sparse right-hand side in ascending-index order — the
// exact slices shard.pushState.consumeResidual produced, bit for bit.
func AppendSolveRequest(buf []byte, epoch, shard int, idx []int, val []float64) []byte {
	buf = appendUint64(buf, uint64(epoch))
	buf = appendUint32(buf, uint32(shard))
	buf = appendUint32(buf, uint32(len(idx)))
	for _, v := range idx {
		buf = appendUint32(buf, uint32(v))
	}
	for _, v := range val {
		buf = appendFloat64(buf, v)
	}
	return buf
}

// DecodeSolveRequest decodes a solve request into freshly allocated
// slices (the worker hands them straight to the solver).
func DecodeSolveRequest(data []byte) (epoch, shard int, idx []int, val []float64, err error) {
	r := reader{data: data}
	epoch = int(r.uint64())
	shard = int(r.uint32())
	n := int(r.uint32())
	if r.err == nil && r.off+12*n > len(r.data) {
		r.fail()
	}
	if r.err != nil {
		return 0, 0, nil, nil, r.err
	}
	idx = make([]int, n)
	val = make([]float64, n)
	for i := range idx {
		idx[i] = int(r.uint32())
	}
	for i := range val {
		val[i] = r.float64()
	}
	return epoch, shard, idx, val, r.err
}

// AppendSolveResponse encodes a solve result. A nil support is a dense
// solve: all yLen leading rows of y travel. Otherwise the support
// travels verbatim — first-touch order preserved, ghost-sink entries
// included — as (row, value) pairs, because rows outside the support
// are stale by the SolveSparse contract and must not cross the wire.
func AppendSolveResponse(buf []byte, y []float64, ysup []int, yLen int) []byte {
	if ysup == nil {
		buf = append(buf, 0)
		buf = appendUint32(buf, uint32(yLen))
		for _, v := range y[:yLen] {
			buf = appendFloat64(buf, v)
		}
		return buf
	}
	buf = append(buf, 1)
	buf = appendUint32(buf, uint32(len(ysup)))
	for _, lv := range ysup {
		buf = appendUint32(buf, uint32(lv))
		buf = appendFloat64(buf, y[lv])
	}
	return buf
}

// DecodeSolveResponse decodes a solve result into y, the caller's
// partLen-sized scratch vector. For a dense reply it fills the leading
// rows and returns a nil support; for a sparse reply it writes only the
// support rows (everything else keeps whatever stale values it had,
// exactly like a local SolveSparse) and returns the support in wire
// order. The returned support aliases a fresh allocation.
func DecodeSolveResponse(data []byte, y []float64) ([]int, error) {
	if len(data) < 1 {
		return nil, fmt.Errorf("rpc: empty solve response")
	}
	r := reader{data: data[1:]}
	if data[0] == 0 {
		n := int(r.uint32())
		if n > len(y) {
			return nil, fmt.Errorf("rpc: dense solve reply has %d rows, scratch has %d", n, len(y))
		}
		for i := 0; i < n; i++ {
			y[i] = r.float64()
		}
		return nil, r.err
	}
	n := int(r.uint32())
	if r.err == nil && r.off+12*n > len(r.data) {
		r.fail()
	}
	if r.err != nil {
		return nil, r.err
	}
	sup := make([]int, n)
	for i := range sup {
		lv := int(r.uint32())
		v := r.float64()
		if lv >= len(y) {
			return nil, fmt.Errorf("rpc: solve reply row %d outside scratch of %d", lv, len(y))
		}
		sup[i] = lv
		y[lv] = v
	}
	return sup, r.err
}

// AppendPrepareRequest encodes a Prepare: the epoch the delta publishes
// as, followed by the delta's own wire encoding (graph.AppendBinary).
func AppendPrepareRequest(buf []byte, epoch int, delta []byte) []byte {
	buf = appendUint64(buf, uint64(epoch))
	return append(buf, delta...)
}

// DecodePrepareRequest decodes a Prepare request; delta aliases data.
func DecodePrepareRequest(data []byte) (epoch int, delta []byte, err error) {
	r := reader{data: data}
	epoch = int(r.uint64())
	return epoch, r.rest(), r.err
}

// AppendEpochRequest encodes a Commit or Abort body.
func AppendEpochRequest(buf []byte, epoch int) []byte {
	return appendUint64(buf, uint64(epoch))
}

// DecodeEpochRequest decodes a Commit or Abort body.
func DecodeEpochRequest(data []byte) (int, error) {
	r := reader{data: data}
	epoch := int(r.uint64())
	return epoch, r.err
}
