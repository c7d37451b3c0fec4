// Package rpc is the coordinator <-> worker wire protocol for
// distributed shard serving: a length-prefixed binary framing over
// stdlib net, a handful of fixed opcodes, and hand-rolled little-endian
// codecs for the solve and epoch-publish payloads.
//
// The protocol exists to move *bits*, not numbers: float64 values cross
// the wire as their raw IEEE-754 bit patterns (math.Float64bits) in
// both directions. A solve names its rows explicitly — the coordinator
// asks for the values the push scatters and the rank reads, and the
// reply carries exactly those, in request order — so the values the
// coordinator feeds into the greedy push and the rank are the bytes a
// single process would have computed. See docs/ARCHITECTURE.md,
// "Distributed serving".
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
	// 2 was OpSolve, which returned a whole solution per solve, and 3
	// OpBatchSolve, the multi-lane block solve. Both are retired, never
	// reused: a worker answers them with the unknown-op error.
	OpPrepare   uint8 = 4 // stage delta as epoch E (two-phase publish, phase 1)
	OpCommit    uint8 = 5 // publish staged epoch E (phase 2)
	OpAbort     uint8 = 6 // drop staged epoch E
	OpPing      uint8 = 7 // liveness probe
	OpSolveRows uint8 = 8 // solve one shard per right-hand side -> values at the listed rows
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
// cannot ask for an absurd allocation. The biggest legitimate frames are
// a coordinator's full-vector reads (every row of a shard for each of
// its solves) and Prepare deltas; 1 GiB is far above either.
const maxFrame = 1 << 30

// beginFrame starts a frame in buf's backing array: a length
// placeholder that endFrame fills once the payload has been appended, so
// header and payload leave in one write — a reader woken by a lone
// header segment would have to block again for the body.
func beginFrame(buf []byte) []byte { return append(buf[:0], 0, 0, 0, 0) }

// endFrame fills in the length of a frame begun by beginFrame.
func endFrame(frame []byte) []byte {
	binary.LittleEndian.PutUint32(frame, uint32(len(frame)-4))
	return frame
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

// SolveRowsRequest is one OpSolveRows call: against shard Shard at
// epoch Epoch, solve every right-hand side — rhs r is Idx[Ptr[r]:Ptr[r+1]]
// with values Val[Ptr[r]:Ptr[r+1]], local ids ascending — and return the
// solution's values at Rows (local ids, any order). Rows and the ids are
// not range-checked here: the decoder knows no shard shapes, so the
// worker validates them against the shard before solving.
type SolveRowsRequest struct {
	Epoch, Shard int
	Rows         []int
	Ptr          []int
	Idx          []int
	Val          []float64
}

// AppendSolveRowsRequest encodes a SolveRowsRequest: epoch, shard, the
// row list, then each right-hand side as its entry count, ids and raw
// value bits — the exact slices the coordinator's push consumed, bit
// for bit. ptr need not start at 0: rhs r is idx[ptr[r]:ptr[r+1]].
func AppendSolveRowsRequest(buf []byte, epoch, shard int, rows, ptr, idx []int, val []float64) []byte {
	nrhs := max(len(ptr)-1, 0)
	buf = appendUint64(buf, uint64(epoch))
	buf = appendUint32(buf, uint32(shard))
	buf = appendUint32(buf, uint32(len(rows)))
	for _, v := range rows {
		buf = appendUint32(buf, uint32(v))
	}
	buf = appendUint32(buf, uint32(nrhs))
	for r := 0; r < nrhs; r++ {
		lo, hi := ptr[r], ptr[r+1]
		buf = appendUint32(buf, uint32(hi-lo))
		for _, v := range idx[lo:hi] {
			buf = appendUint32(buf, uint32(v))
		}
		for _, v := range val[lo:hi] {
			buf = appendFloat64(buf, v)
		}
	}
	return buf
}

// DecodeSolveRowsRequest decodes a SolveRowsRequest into q, reusing
// the capacity of q's slices (a worker pools its requests). Every count
// is checked against the bytes that must follow it before anything is
// allocated, and the reply it asks for (right-hand sides × rows values)
// must fit in one frame, so a hostile header cannot make the worker
// allocate more than the frame carried.
func DecodeSolveRowsRequest(data []byte, q *SolveRowsRequest) error {
	r := reader{data: data}
	q.Epoch = int(r.uint64())
	q.Shard = int(r.uint32())
	nrows := int(r.uint32())
	if r.err == nil && 4*nrows > len(r.data)-r.off {
		r.fail()
	}
	if r.err != nil {
		return r.err
	}
	q.Rows = q.Rows[:0]
	for i := 0; i < nrows; i++ {
		q.Rows = append(q.Rows, int(r.uint32()))
	}
	nrhs := int(r.uint32())
	if r.err == nil && 4*nrhs > len(r.data)-r.off {
		r.fail() // every right-hand side carries at least its count
	}
	if r.err != nil {
		return r.err
	}
	if uint64(nrhs)*uint64(nrows) > (maxFrame-SolveRowsReplyHeader)/8 {
		return fmt.Errorf("rpc: solve of %d right-hand sides × %d rows exceeds the frame limit", nrhs, nrows)
	}
	q.Ptr = append(q.Ptr[:0], 0)
	q.Idx, q.Val = q.Idx[:0], q.Val[:0]
	for k := 0; k < nrhs; k++ {
		n := int(r.uint32())
		if r.err == nil && 12*n > len(r.data)-r.off {
			r.fail()
		}
		if r.err != nil {
			return r.err
		}
		for i := 0; i < n; i++ {
			q.Idx = append(q.Idx, int(r.uint32()))
		}
		for i := 0; i < n; i++ {
			q.Val = append(q.Val, r.float64())
		}
		q.Ptr = append(q.Ptr, len(q.Idx))
	}
	if r.err == nil && r.off != len(r.data) {
		return fmt.Errorf("rpc: %d trailing bytes after solve request", len(r.data)-r.off)
	}
	return r.err
}

// SolveRowsReplyHeader is the byte size of an OpSolveRows reply ahead
// of its values: the worker's elapsed nanoseconds.
const SolveRowsReplyHeader = 8

// AppendSolveRowsResponse encodes an OpSolveRows reply: the worker's
// elapsed nanoseconds, then the requested values rhs-major (value i of
// right-hand side r at position r·len(rows)+i) as raw IEEE-754 bits.
func AppendSolveRowsResponse(buf []byte, workerNS int64, vals []float64) []byte {
	buf = appendUint64(buf, uint64(workerNS))
	for _, v := range vals {
		buf = appendFloat64(buf, v)
	}
	return buf
}

// DecodeSolveRowsResponse decodes an OpSolveRows reply into out, which
// the caller sized to the right-hand sides × rows it asked for; a reply
// of any other length is an error, never a partial fill.
func DecodeSolveRowsResponse(data []byte, out []float64) (workerNS int64, err error) {
	if len(data) != SolveRowsReplyHeader+8*len(out) {
		return 0, fmt.Errorf("rpc: solve reply has %d bytes, want %d for %d values", len(data), SolveRowsReplyHeader+8*len(out), len(out))
	}
	workerNS = int64(binary.LittleEndian.Uint64(data))
	data = data[SolveRowsReplyHeader:]
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
	}
	return workerNS, nil
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
