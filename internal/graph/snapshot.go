package graph

// Graph snapshots: a graph saved as an internal/mmapio container, the
// format the index's shard files use. OpenSnapshot reads one into
// sealed memory outside the Go heap (where the platform maps memory)
// and the graph's arrays alias it, so a served snapshot costs the
// garbage collector nothing and its pacer does not double it. The
// memory is released when the graph becomes unreachable, or at once by
// Close.
//
// Sections, all little-endian:
//
//	1  bytes       meta: tag "KDGRV2\x00\x00", uint64 n, uint64 m
//	2  int64[n+1]  out-adjacency pointers
//	3  int32[m]    out-adjacency targets, ascending within each row
//	4  float64[m]  out-edge weights
//
// The in-adjacency, which "KDGRV1" also stored, is derived on first use.
// Open verifies every checksum and range-checks every array, so an
// opened snapshot is array for array what Builder makes of its edges.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"

	"kdash/internal/mmapio"
)

const (
	snapMeta   = 1
	snapOutPtr = 2
	snapOutTo  = 3
	snapOutW   = 4
)

// ErrUnsupportedSnapshot refuses a retired generation, or no snapshot.
var ErrUnsupportedSnapshot = errors.New("not a current graph snapshot")

// snapshotTag opens the meta section and names the generation.
const snapshotTag = "KDGRV2\x00\x00"

// snapshotMetaSize is the meta section's byte length: tag, n, m.
const snapshotMetaSize = 24

// WriteSnapshot writes the graph as a sectioned container that
// OpenSnapshot reads.
func (g *Graph) WriteSnapshot(w io.Writer) error {
	meta := make([]byte, snapshotMetaSize)
	copy(meta, snapshotTag)
	binary.LittleEndian.PutUint64(meta[8:], uint64(g.n))
	binary.LittleEndian.PutUint64(meta[16:], uint64(g.M()))
	sw := mmapio.NewWriter()
	sw.AddBytes(snapMeta, meta)
	sw.AddInts(snapOutPtr, g.outPtr)
	sw.AddInt32s(snapOutTo, g.outTo)
	sw.AddFloats(snapOutW, g.outW)
	_, err := sw.WriteTo(w)
	runtime.KeepAlive(g) // sw holds slices of a sealed backing
	if err != nil {
		return fmt.Errorf("graph: writing snapshot: %w", err)
	}
	return nil
}

// OpenSnapshot opens a snapshot written by WriteSnapshot. The file is
// read into sealed memory (a Go buffer where the platform cannot map
// memory), checksummed and range-checked, and the returned graph's
// arrays alias it. Every error names the file.
func OpenSnapshot(path string) (*Graph, error) {
	f, err := mmapio.Open(path)
	if err != nil {
		return nil, fmt.Errorf("graph: opening snapshot: %w", err)
	}
	g, err := snapshotFromContainer(f)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("graph: snapshot %s: %w", path, err)
	}
	g.backing = &snapshotBacking{f: f}
	if f.OffHeap() {
		g.backing.sealed = int64(f.Size())
		sealedBytes.Add(g.backing.sealed)
		runtime.AddCleanup(g, releaseSnapshot, g.backing)
	}
	return g, nil
}

// snapshotBacking is the container an opened graph's arrays alias,
// with its share of the process-wide sealed-snapshot account.
type snapshotBacking struct {
	f      *mmapio.File
	sealed int64 // bytes of sealed memory, 0 for a heap copy
	once   sync.Once
}

// close releases the container and its account, once: both the
// cleanup of an unreachable graph and Close call it.
func (b *snapshotBacking) close() error {
	var err error
	b.once.Do(func() {
		err = b.f.Close()
		sealedBytes.Add(-b.sealed)
	})
	return err
}

// releaseSnapshot is the cleanup of an unreachable opened graph.
func releaseSnapshot(b *snapshotBacking) { b.close() }

// sealedBytes counts the sealed snapshots not yet released.
var sealedBytes atomic.Int64

// SealedSnapshotBytes reports the bytes of sealed graph snapshots the
// process holds — the graph's share of mmapio.ReadStats's SealedBytes.
func SealedSnapshotBytes() int64 { return sealedBytes.Load() }

func snapshotFromContainer(f *mmapio.File) (*Graph, error) {
	meta, err := f.Bytes(snapMeta)
	if err != nil {
		return nil, err
	}
	if len(meta) != snapshotMetaSize || string(meta[:len(snapshotTag)]) != snapshotTag {
		return nil, fmt.Errorf("%w (bad meta section)", ErrUnsupportedSnapshot)
	}
	n := binary.LittleEndian.Uint64(meta[8:])
	m := binary.LittleEndian.Uint64(meta[16:])
	if n > MaxNodes {
		return nil, fmt.Errorf("corrupt snapshot (%d nodes)", n)
	}
	g := &Graph{n: int(n)}
	ints := func(id uint32, dst *[]int) {
		if err == nil {
			*dst, err = f.Ints(id)
		}
	}
	ids := func(id uint32, dst *[]int32) {
		if err == nil {
			*dst, err = f.Int32s(id)
		}
	}
	floats := func(id uint32, dst *[]float64) {
		if err == nil {
			*dst, err = f.Floats(id)
		}
	}
	ints(snapOutPtr, &g.outPtr)
	ids(snapOutTo, &g.outTo)
	floats(snapOutW, &g.outW)
	if err != nil {
		return nil, err
	}
	if uint64(len(g.outTo)) != m {
		return nil, fmt.Errorf("corrupt snapshot (%d edges, meta says %d)", len(g.outTo), m)
	}
	if err := g.validate(); err != nil {
		return nil, err
	}
	return g, nil
}

// validate checks what a query or an update reads: the pointer array
// from 0 to m without decreasing, and rows strictly ascending and in
// range with positive finite weights.
func (g *Graph) validate() error {
	n, m := g.n, len(g.outTo)
	if len(g.outW) != m {
		return fmt.Errorf("corrupt snapshot (%d targets, %d weights)", m, len(g.outW))
	}
	if len(g.outPtr) != n+1 || g.outPtr[0] != 0 || g.outPtr[n] != m {
		return fmt.Errorf("corrupt snapshot (%d pointers for %d nodes, %d edges)", len(g.outPtr), n, m)
	}
	for u := 0; u < n; u++ {
		if g.outPtr[u] > g.outPtr[u+1] {
			return fmt.Errorf("corrupt snapshot (pointer %d decreases)", u)
		}
		for i := g.outPtr[u]; i < g.outPtr[u+1]; i++ {
			v, w := g.outTo[i], g.outW[i]
			if v < 0 || int(v) >= n || (i > g.outPtr[u] && g.outTo[i-1] >= v) {
				return fmt.Errorf("corrupt snapshot (edge %d of node %d targets %d)", i-g.outPtr[u], u, v)
			}
			if !validWeight(w) {
				return fmt.Errorf("corrupt snapshot (edge (%d,%d) weighs %v)", u, v, w)
			}
		}
	}
	return nil
}

// SealedBytes reports the size of the sealed snapshot the graph's
// arrays alias, and 0 for a graph on the Go heap.
func (g *Graph) SealedBytes() int64 {
	if g.backing == nil {
		return 0
	}
	return g.backing.sealed
}

// HeapBytes reports the bytes of the graph's arrays on the Go heap: the
// out-rows unless they alias a sealed snapshot, and any derived in-rows.
func (g *Graph) HeapBytes() int64 {
	var b int
	if g.backing == nil {
		b = 8*len(g.outPtr) + 4*len(g.outTo) + 8*len(g.outW)
	}
	if in := g.in.Load(); in != nil {
		b += 8*len(in.RowPtr) + 4*len(in.ColIdx) + 8*len(in.Val)
	}
	return int64(b)
}

// Close releases an opened snapshot's sealed memory now rather than
// when the graph becomes unreachable. The graph must not be used after
// Close. A graph on the Go heap closes as a no-op.
func (g *Graph) Close() error {
	if g.backing == nil {
		return nil
	}
	return g.backing.close()
}
