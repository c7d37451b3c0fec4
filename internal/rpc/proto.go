// Package rpc is the coordinator <-> worker wire protocol for
// distributed shard serving: a length-prefixed binary framing over
// stdlib net, a handful of fixed opcodes, and hand-rolled little-endian
// codecs for the solve and epoch-publish payloads.
//
// The protocol exists to move *bits*, not numbers: float64 values cross
// the wire as their raw IEEE-754 bit patterns (math.Float64bits) in
// both directions. A run ships the push's pending state bit for bit and
// names the rows its solves return — the coordinator asks for the
// values the push scatters and the rank reads, and each step of the
// reply carries exactly those, ascending — so the values the coordinator
// feeds into the greedy push and the rank are the bytes a single process
// would have computed. See docs/ARCHITECTURE.md,
// "Distributed serving".
package rpc

import (
	"bufio"
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
	// 2 was OpSolve, which returned a whole solution per solve, 3
	// OpBatchSolve, the multi-lane block solve, and 8 OpSolveRows, which
	// solved one shard per right-hand side at listed rows. All are
	// retired, never reused: a worker answers them with the unknown-op
	// error.
	OpPrepare uint8 = 4 // stage delta as epoch E (two-phase publish, phase 1)
	OpCommit  uint8 = 5 // publish staged epoch E (phase 2)
	OpAbort   uint8 = 6 // drop staged epoch E
	OpPing    uint8 = 7 // liveness probe
	OpRunRows uint8 = 9 // continue the push on the worker's shards -> each solve's values
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
// a full-vector read's run replies (every owned row of a served shard
// per step) and Prepare deltas; 1 GiB is far above either.
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
// backing array when it has capacity (the length prefix is read there
// too, so a reused buffer reads a frame without allocating). Over a
// connection, r is the connection's buffered reader: a frame that
// arrived whole is then one read syscall, header and body together.
func ReadFrame(r io.Reader, buf []byte) ([]byte, error) {
	if cap(buf) < 4 {
		buf = make([]byte, 4)
	}
	hdr := buf[:4]
	if _, err := io.ReadFull(r, hdr); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(hdr)
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

// readBufSize is a connection's read buffer: one typical reply or
// request whole, fixed for the connection's life (a longer frame is
// read through it, never grown into it).
const readBufSize = 4 << 10

// Conn wraps one framed request/response connection.
type Conn struct {
	c   net.Conn
	r   *bufio.Reader
	buf []byte
}

// NewConn wraps a net.Conn for framed use.
func NewConn(c net.Conn) *Conn { return &Conn{c: c, r: bufio.NewReaderSize(c, readBufSize)} }

// Request starts a request frame for op in a buffer with room for an
// n-byte body: the caller appends the body (AppendRunRowsRequest and
// friends encode straight into it) and passes the frame to
// Client.Send, so a request is one buffer and leaves in one write.
func Request(op uint8, n int) []byte { return append(beginFrame(make([]byte, 0, 5+n)), op) }

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

// MaxRunSteps caps the solves one OpRunRows call runs, which bounds its
// reply to MaxRunSteps of the served shards' row sets. A push that
// keeps its most pending mass on one worker longer than that takes
// another call.
const MaxRunSteps = 32

// RunRowsRequest is one OpRunRows call: continue the cross-shard push
// at epoch Epoch on the shards the worker serves (Served, ascending),
// from the pending state the coordinator holds. Mass is every shard's
// pending mass; Tol is the push's tolerance on their sum and Budget the
// solves it has left. Each shard si has a section: its residual is
// ResIdx/ResVal over [ResPtr[si], ResPtr[si+1]) — local ids ascending,
// values nonzero — and its rank-prefix rows are PreRows over
// [PrePtr[si], PrePtr[si+1]), ascending. Only the served shards'
// sections travel; a decoded request's other sections are empty. The
// decoder range-checks no id: the worker validates them against the
// shards.
type RunRowsRequest struct {
	Epoch   int
	Served  []int
	Mass    []float64
	Tol     float64
	Budget  int
	ResPtr  []int
	ResIdx  []int
	ResVal  []float64
	PrePtr  []int
	PreRows []int
}

// Len is q's encoded size: what AppendRunRowsRequest appends.
func (q *RunRowsRequest) Len() int {
	n := 28 + 12*len(q.Served) + 8*len(q.Mass)
	for _, si := range q.Served {
		n += 12*(q.ResPtr[si+1]-q.ResPtr[si]) + 4*(q.PrePtr[si+1]-q.PrePtr[si])
	}
	return n
}

// AppendRunRowsRequest encodes q: epoch, the served shards, every
// shard's mass, tolerance and budget, then per served shard its
// residual (count, ids, raw value bits) and its prefix rows (count,
// rows).
func AppendRunRowsRequest(buf []byte, q *RunRowsRequest) []byte {
	buf = appendUint64(buf, uint64(q.Epoch))
	buf = appendUint32(buf, uint32(len(q.Served)))
	for _, si := range q.Served {
		buf = appendUint32(buf, uint32(si))
	}
	buf = appendUint32(buf, uint32(len(q.Mass)))
	for _, m := range q.Mass {
		buf = appendFloat64(buf, m)
	}
	buf = appendFloat64(buf, q.Tol)
	buf = appendUint32(buf, uint32(q.Budget))
	for _, si := range q.Served {
		lo, hi := q.ResPtr[si], q.ResPtr[si+1]
		buf = appendUint32(buf, uint32(hi-lo))
		for _, v := range q.ResIdx[lo:hi] {
			buf = appendUint32(buf, uint32(v))
		}
		for _, v := range q.ResVal[lo:hi] {
			buf = appendFloat64(buf, v)
		}
		lo, hi = q.PrePtr[si], q.PrePtr[si+1]
		buf = appendUint32(buf, uint32(hi-lo))
		for _, v := range q.PreRows[lo:hi] {
			buf = appendUint32(buf, uint32(v))
		}
	}
	return buf
}

// count reads a u32 element count and checks that size bytes per
// element follow it, so a hostile count fails before anything is
// allocated.
func (r *reader) count(size int) int {
	n := int(r.uint32())
	if r.err == nil && size*n > len(r.data)-r.off {
		r.fail()
	}
	if r.err != nil {
		return 0
	}
	return n
}

// DecodeRunRowsRequest decodes a RunRowsRequest into q, reusing the
// capacity of q's slices: one section per mass, the served shards'
// from the body and every other one empty. Every count is checked
// against the bytes that must follow it before anything is appended,
// and served shards that are not ascending among the masses are an
// error.
func DecodeRunRowsRequest(data []byte, q *RunRowsRequest) error {
	r := reader{data: data}
	q.Epoch = int(r.uint64())
	q.Served = q.Served[:0]
	for i, n := 0, r.count(4); i < n; i++ {
		q.Served = append(q.Served, int(r.uint32()))
	}
	q.Mass = q.Mass[:0]
	for i, n := 0, r.count(8); i < n; i++ {
		q.Mass = append(q.Mass, r.float64())
	}
	q.Tol = r.float64()
	q.Budget = int(r.uint32())
	q.ResPtr, q.ResIdx, q.ResVal = append(q.ResPtr[:0], 0), q.ResIdx[:0], q.ResVal[:0]
	q.PrePtr, q.PreRows = append(q.PrePtr[:0], 0), q.PreRows[:0]
	j := 0
	for si := range q.Mass {
		if j < len(q.Served) && q.Served[j] == si {
			j++
			n := r.count(12)
			for i := 0; i < n; i++ {
				q.ResIdx = append(q.ResIdx, int(r.uint32()))
			}
			for i := 0; i < n; i++ {
				q.ResVal = append(q.ResVal, r.float64())
			}
			for i, n := 0, r.count(4); i < n; i++ {
				q.PreRows = append(q.PreRows, int(r.uint32()))
			}
		}
		q.ResPtr = append(q.ResPtr, len(q.ResIdx))
		q.PrePtr = append(q.PrePtr, len(q.PreRows))
	}
	if r.err == nil && j != len(q.Served) {
		return fmt.Errorf("rpc: run's %d served shards are not ascending among its %d masses", len(q.Served), len(q.Mass))
	}
	if r.err == nil && r.off != len(r.data) {
		return fmt.Errorf("rpc: %d trailing bytes after run request", len(r.data)-r.off)
	}
	return r.err
}

// RunRowsReply is an OpRunRows reply: the worker's elapsed time and
// the solves it ran, in order — step s solved shard Steps[s], and
// Vals over [Ptr[s], Ptr[s+1]) are its values at that shard's cut rows
// and rank-prefix rows, ascending.
type RunRowsReply struct {
	WorkerNS int64
	Steps    []int
	Ptr      []int
	Vals     []float64
}

// Reset empties the reply for reuse, keeping its capacity.
func (p *RunRowsReply) Reset() {
	p.WorkerNS = 0
	p.Steps, p.Ptr, p.Vals = p.Steps[:0], append(p.Ptr[:0], 0), p.Vals[:0]
}

// AppendRunRowsReply encodes p: the worker's elapsed nanoseconds, the
// step count, then per step its shard, value count and raw value bits.
func AppendRunRowsReply(buf []byte, p *RunRowsReply) []byte {
	buf = appendUint64(buf, uint64(p.WorkerNS))
	buf = appendUint32(buf, uint32(len(p.Steps)))
	for s, si := range p.Steps {
		buf = appendUint32(buf, uint32(si))
		buf = appendUint32(buf, uint32(p.Ptr[s+1]-p.Ptr[s]))
		for _, v := range p.Vals[p.Ptr[s]:p.Ptr[s+1]] {
			buf = appendFloat64(buf, v)
		}
	}
	return buf
}

// DecodeRunRowsReply decodes an OpRunRows reply into p, reusing its
// capacity. A reply of more than MaxRunSteps steps, or whose counts
// promise more than it carries, is an error.
func DecodeRunRowsReply(data []byte, p *RunRowsReply) error {
	r := reader{data: data}
	p.Reset()
	p.WorkerNS = int64(r.uint64())
	nsteps := r.count(8)
	if nsteps > MaxRunSteps {
		return fmt.Errorf("rpc: run reply of %d steps exceeds the cap of %d", nsteps, MaxRunSteps)
	}
	for s := 0; s < nsteps; s++ {
		p.Steps = append(p.Steps, int(r.uint32()))
		for i, n := 0, r.count(8); i < n; i++ {
			p.Vals = append(p.Vals, r.float64())
		}
		p.Ptr = append(p.Ptr, len(p.Vals))
	}
	if r.err == nil && r.off != len(r.data) {
		return fmt.Errorf("rpc: %d trailing bytes after run reply", len(r.data)-r.off)
	}
	return r.err
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
