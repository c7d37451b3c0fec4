package core

// Index serialization: the index's arrays are written as page-aligned
// little-endian sections in an internal/mmapio container — the file
// format of every shard of a saved sharded index directory.
// OpenIndexFile, the one loader, reads a file into sealed memory outside
// the Go heap (where the platform maps memory) and wraps every factor
// array in place, after verifying every section checksum and
// range-checking every array.
//
// A loaded index's arrays are read-only at the MMU level: mmapio
// seals the memory PROT_READ. The query and update paths never write
// factor arrays (all scratch lives in pooled workspaces);
// TestLoadedQueriesNeverWriteFactors pins that contract by running the
// full query surface against sealed memory, and
// TestLoadedFactorsFaultOnWrite shows a write faulting.
//
// Version note: the sectioned layout is "v3" to match the sharded
// manifest version that introduced it; its meta tag names the
// generation within it. The current one, "KDIXV8", stores what a query
// reads — the int32 permutation and the inverse factors in the compact
// id encoding (lu.Compact: a gap byte per entry, escaped ids int32,
// int32 line pointers), L^{-1} with neither its unit diagonal nor a
// block's ghost-sink row — and a block's Louvain communities (section
// 23, K and Q in the meta section); no adjacency, which a rebuild
// re-forms from the graph. It is the only generation the loader reads:
// the v1 value-by-value stream, the v3 files that also carried int32
// factor strips (sections 15-22, mmapio kind 4), the "KDIXV3" files
// whose ids were int64, the "KDIXV4" files without communities, the
// "KDIXV5" files that also stored the adjacency (sections 4-6), the
// "KDIXV6" files whose inverse factors kept an int32 id per entry
// (sections 8 and 11) and the "KDIXV7" files whose line pointers were
// int64 and whose L^{-1} stored its diagonal and sink row are all
// refused with ErrUnsupportedFormat.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sync/atomic"

	"kdash/internal/lu"
	"kdash/internal/mmapio"
	"kdash/internal/reorder"
	"kdash/internal/sparse"
)

// ErrUnsupportedFormat is returned for a file this build does not read
// as an index: a retired generation or no K-dash index at all. Saved
// directories keep their graph snapshot, so the remedy is a rebuild.
var ErrUnsupportedFormat = errors.New("not a current K-dash index file; rebuild with `kdash -save-index`")

// Section ids of the v3 index container. Ids 3-6, 13 and 14 held the
// adjacency and tables derived from it, 8 and 11 the inverse factors'
// int32 ids; they are unused. Each inverse factor is one lu.Compact:
// entry pointers, values, gap bytes, escape pointers and escaped ids.
// L^{-1}'s lines store the rows past the diagonal and below the meta
// section's row bound; U^{-1}'s store every column from the diagonal
// on. Both count line j's first gap from j-1.
const (
	secMeta       = 1  // bytes: fixed 88-byte header, see metaBytes
	secPerm       = 2  // int32[n]: original -> internal node id
	secLinvColPtr = 7  // int32[n+1]: L^-1 column pointers
	secLinvVal    = 9  // float64[nnzL]: off-diagonal values
	secUinvRowPtr = 10 // int32[n+1]: U^-1 row pointers
	secUinvVal    = 12 // float64[nnzU]
	secCommunity  = 23 // int32[owned]: a block's Louvain communities, present when K > 0
	secLinvGap    = 24 // uint8[nnzL]: row gaps, 0 escapes
	secLinvEscPtr = 25 // int32[n+1]: L^-1 escape pointers
	secLinvEsc    = 26 // int32[escL]: escaped row ids
	secUinvGap    = 27 // uint8[nnzU]: column gaps, 0 escapes
	secUinvEscPtr = 28 // int32[n+1]: U^-1 escape pointers
	secUinvEsc    = 29 // int32[escU]: escaped column ids
)

// metaTag opens the meta section and names the generation, so a
// container holding something other than a current core index is
// refused before any array is interpreted.
const metaTag = "KDIXV8\x00\x00"

// metaSize is the fixed byte length of the meta section:
//
//	0   8  tag "KDIXV8\x00\x00"
//	8   8  uint64 n
//	16  8  float64 bits of the restart probability c
//	24  8  uint64 reorder method
//	32  8  uint64 stats.NNZFactors
//	40  8  uint64 stats.NNZInverse
//	48  8  uint64 stats.Edges
//	56  8  float64 bits of stats.InverseRatio
//	64  8  uint64 community count K (0: no community section)
//	72  8  float64 bits of the communities' modularity Q
//	80  8  uint64 rows L^{-1} keeps (n, or fewer past a ghost sink)
const metaSize = 88

// metaBytes encodes the scalar header.
func (ix *Index) metaBytes() []byte {
	b := make([]byte, metaSize)
	copy(b, metaTag)
	le := binary.LittleEndian
	le.PutUint64(b[8:], uint64(ix.n))
	le.PutUint64(b[16:], math.Float64bits(ix.c))
	le.PutUint64(b[24:], uint64(ix.stats.Method))
	le.PutUint64(b[32:], uint64(ix.stats.NNZFactors))
	le.PutUint64(b[40:], uint64(ix.stats.NNZInverse))
	le.PutUint64(b[48:], uint64(ix.stats.Edges))
	le.PutUint64(b[56:], math.Float64bits(ix.stats.InverseRatio))
	le.PutUint64(b[64:], uint64(ix.commK))
	le.PutUint64(b[72:], math.Float64bits(ix.commQ))
	le.PutUint64(b[80:], uint64(ix.inv.Linv.Rows))
	return b
}

// Save writes the index as a sectioned v3 container, which
// OpenIndexFile reads back.
func (ix *Index) Save(w io.Writer) error {
	sw := mmapio.NewWriter()
	sw.AddBytes(secMeta, ix.metaBytes())
	sw.AddInt32s(secPerm, ix.perm)
	for _, f := range []struct {
		m                      *lu.Compact
		ptr, val, gap, ep, esc uint32
	}{
		{ix.inv.Linv, secLinvColPtr, secLinvVal, secLinvGap, secLinvEscPtr, secLinvEsc},
		{ix.inv.Uinv, secUinvRowPtr, secUinvVal, secUinvGap, secUinvEscPtr, secUinvEsc},
	} {
		sw.AddInt32s(f.ptr, f.m.Ptr)
		sw.AddFloats(f.val, f.m.Val)
		sw.AddBytes(f.gap, f.m.Gap)
		sw.AddInt32s(f.ep, f.m.EscPtr)
		sw.AddInt32s(f.esc, f.m.Esc)
	}
	if ix.commK > 0 {
		sw.AddInt32s(secCommunity, ix.comm)
	}
	_, err := sw.WriteTo(w)
	runtime.KeepAlive(ix) // sw holds slices of the backing
	if err != nil {
		return fmt.Errorf("core: writing index: %w", err)
	}
	return nil
}

// OpenIndexFile opens a saved index file: the file is read into sealed
// memory outside the Go heap (a Go buffer where the platform cannot map
// memory), every checksum is verified and every array range-checked,
// and the returned index's arrays alias that memory. Close releases it
// at once; otherwise it is released once the index becomes unreachable.
// A file that is not the current container is refused with
// ErrUnsupportedFormat.
func OpenIndexFile(path string) (*Index, error) {
	osf, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("core: opening index: %w", err)
	}
	var head [len(mmapio.Magic)]byte
	n, _ := io.ReadFull(osf, head[:])
	osf.Close()
	if n != len(head) || string(head[:]) != mmapio.Magic {
		return nil, fmt.Errorf("core: opening %s: %w", path, ErrUnsupportedFormat)
	}
	f, err := mmapio.Open(path)
	if err != nil {
		return nil, fmt.Errorf("core: opening %s: %w", path, containerErr(err))
	}
	ix, err := indexFromContainer(f)
	if err != nil {
		f.Close() // release the memory a rejected container holds
		return nil, err
	}
	return ix, nil
}

// containerErr classifies a container parse error. A section kind this
// reader does not know is the mark of another generation (the retired
// int32 strips), so it is reported as ErrUnsupportedFormat, not damage.
func containerErr(err error) error {
	if errors.Is(err, mmapio.ErrUnknownKind) {
		return fmt.Errorf("%w (%w)", ErrUnsupportedFormat, err)
	}
	return err
}

// indexFromContainer builds an Index over a verified container and
// range-checks it (validateLoaded). It installs the factor arrays
// (aliasing the container's sealed memory), so it sits on the
// //kdash:mutates-factors allowlist.
//
//kdash:mutates-factors
func indexFromContainer(f *mmapio.File) (*Index, error) {
	meta, err := f.Bytes(secMeta)
	if err != nil {
		return nil, fmt.Errorf("core: corrupt index: %w", err)
	}
	if len(meta) < len(metaTag) || string(meta[:len(metaTag)]) != metaTag {
		// An older generation (or no core index at all): its remedy is
		// the rebuild.
		return nil, fmt.Errorf("core: %w (bad meta section)", ErrUnsupportedFormat)
	}
	if len(meta) != metaSize {
		return nil, fmt.Errorf("core: corrupt index (meta section of %d bytes)", len(meta))
	}
	le := binary.LittleEndian
	n := le.Uint64(meta[8:])
	ix := &Index{
		n: int(n),
		c: math.Float64frombits(le.Uint64(meta[16:])),
	}
	if n == 0 || n > sparse.MaxDim || ix.c <= 0 || ix.c >= 1 {
		return nil, fmt.Errorf("core: corrupt index (n=%d c=%v)", n, ix.c)
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
	gaps := func(id uint32, dst *[]uint8) {
		if err == nil {
			*dst, err = f.Bytes(id)
		}
	}
	// Validate refuses a row bound past n.
	linv := &lu.Compact{N: ix.n, Rows: int(min(le.Uint64(meta[80:]), n+1)), Unit: true}
	uinv := &lu.Compact{N: ix.n, Rows: ix.n}
	ids(secPerm, &ix.perm)
	ids(secLinvColPtr, &linv.Ptr)
	floats(secLinvVal, &linv.Val)
	gaps(secLinvGap, &linv.Gap)
	ids(secLinvEscPtr, &linv.EscPtr)
	ids(secLinvEsc, &linv.Esc)
	ids(secUinvRowPtr, &uinv.Ptr)
	floats(secUinvVal, &uinv.Val)
	gaps(secUinvGap, &uinv.Gap)
	ids(secUinvEscPtr, &uinv.EscPtr)
	ids(secUinvEsc, &uinv.Esc)
	if ix.commK = int(min(le.Uint64(meta[64:]), sparse.MaxDim+1)); ix.commK > 0 {
		ids(secCommunity, &ix.comm)
		ix.commQ = math.Float64frombits(le.Uint64(meta[72:]))
	}
	if err != nil {
		return nil, fmt.Errorf("core: corrupt index: %w", err)
	}
	ix.inv = &lu.Inverse{N: ix.n, Linv: linv, Uinv: uinv}
	ix.stats = BuildStats{
		Method:       reorder.Method(le.Uint64(meta[24:])),
		NNZFactors:   int(le.Uint64(meta[32:])),
		NNZInverse:   int(le.Uint64(meta[40:])),
		Edges:        int(le.Uint64(meta[48:])),
		InverseRatio: math.Float64frombits(le.Uint64(meta[56:])),
	}
	if err := ix.validateLoaded(); err != nil {
		return nil, err
	}
	ix.backing = f
	if f.OffHeap() {
		runtime.AddCleanup(ix, closeBacking, f)
	} else {
		trackHeap(ix, int64(f.Size()))
	}
	return ix, nil
}

// closeBacking is the cleanup that releases an unreachable Index's
// off-heap container; an explicit Close before it makes it a no-op.
func closeBacking(f *mmapio.File) { f.Close() }

// heapBytes counts index arrays on the Go heap until the collector
// finds their Index unreachable.
var heapBytes atomic.Int64

// HeapBytes reports the bytes of index arrays currently on the Go heap,
// each at its stored width: every index built in process (BuildIndex,
// the blocks a sharded build or Apply makes) or loaded into a Go buffer
// (OpenIndexFile where the platform cannot map memory), counted until
// the garbage collector finds its Index unreachable. The tables an index derives on first use are not
// counted. Off-heap containers are mmapio.ReadStats's.
func HeapBytes() int64 { return heapBytes.Load() }

// trackHeap counts n bytes of ix's arrays as heap-held for ix's lifetime.
func trackHeap(ix *Index, n int64) {
	heapBytes.Add(n)
	runtime.AddCleanup(ix, untrackHeap, n)
}

func untrackHeap(n int64) { heapBytes.Add(-n) }

// arrayBytes is the byte size of the index's stored arrays, each at its
// own width: what Save writes, less the meta section, the container's
// table and padding, and a block's communities.
func (ix *Index) arrayBytes() int64 {
	return 4*int64(len(ix.perm)) + ix.FactorBytes()
}

// FactorBytes is the byte size of the inverse factors' arrays at their
// stored width: per stored entry a value and a gap byte, per escaped id
// four bytes, per line of each factor two int32 pointers.
func (ix *Index) FactorBytes() int64 { return ix.inv.Bytes() }

// Close releases the index's off-heap backing, a sealed copy, now
// rather than when the index becomes unreachable. An index must not be
// used after Close: its arrays alias that memory and reads fault once
// it is gone. Indexes on the Go heap close as a
// harmless no-op.
func (ix *Index) Close() error {
	if ix.backing == nil {
		return nil
	}
	f := ix.backing
	ix.backing = nil
	return f.Close()
}

// validateLoaded checks every array a query reads, so a corrupt file
// fails loudly at load time instead of panicking mid-query: lengths
// against n and each other, that perm is a permutation, and each
// inverse factor's encoding (lu.Compact.Validate).
func (ix *Index) validateLoaded() error {
	n := ix.n
	if len(ix.perm) != n {
		return fmt.Errorf("core: corrupt index (per-node sections sized %d, want %d)", len(ix.perm), n)
	}
	if k := ix.commK; k > 0 {
		if len(ix.comm) > n || k > len(ix.comm) {
			return fmt.Errorf("core: corrupt index (%d communities over %d of %d nodes)", k, len(ix.comm), n)
		}
		for _, c := range ix.comm {
			if c < 0 || int(c) >= k {
				return fmt.Errorf("core: corrupt index (community %d of %d)", c, k)
			}
		}
	}
	seen := make([]bool, n)
	for _, p := range ix.perm {
		if p < 0 || int(p) >= n || seen[p] {
			return fmt.Errorf("core: corrupt index (perm is not a permutation)")
		}
		seen[p] = true
	}
	if err := ix.inv.Linv.Validate("L-inverse"); err != nil {
		return fmt.Errorf("core: corrupt index (%w)", err)
	}
	if err := ix.inv.Uinv.Validate("U-inverse"); err != nil {
		return fmt.Errorf("core: corrupt index (%w)", err)
	}
	return nil
}
