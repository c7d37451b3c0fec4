package core

// Index serialization: the index's arrays are written as page-aligned
// little-endian sections in an internal/mmapio container, so
// OpenIndexFile can memory-map the file and wrap every factor array in
// place: opening costs O(#sections) regardless of index size, cold
// pages are faulted in only when a query actually traverses them, and
// the physical memory is shared across every process serving the same
// file. LoadIndex accepts the same layout from a stream (copy mode).
//
// A mapped index's arrays are read-only at the MMU level, and so are a
// copy-mode load's where the platform maps memory: mmapio reads the file
// into anonymous memory outside the Go heap and seals it PROT_READ. The
// query and update paths never write factor arrays (all scratch lives in
// pooled workspaces); TestMmapQueriesNeverWriteFactors pins that
// contract by running the full query surface against a PROT_READ
// mapping, and TestLoadedFactorsFaultOnWrite shows a write faulting in
// both modes.
//
// Version note: the sectioned layout is "v3" to match the sharded
// manifest version that introduced it. It is the only generation either
// loader reads: the v1 value-by-value stream and the v3 files that also
// carried int32 factor strips (sections 15-22, mmapio kind 4) are
// refused with ErrUnsupportedFormat.

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sync/atomic"

	"kdash/internal/mmapio"
	"kdash/internal/reorder"
	"kdash/internal/sparse"
)

// ErrUnsupportedFormat is returned for a file this build does not read
// as an index: a retired generation or no K-dash index at all. Saved
// directories keep their graph snapshot, so the remedy is a rebuild.
var ErrUnsupportedFormat = errors.New("not a current K-dash index file; rebuild with `kdash -save-index`")

// Section ids of the v3 index container.
const (
	secMeta       = 1  // bytes: fixed 72-byte header, see metaBytes
	secPerm       = 2  // int64[n]: original -> internal node id
	secInvPerm    = 3  // int64[n]: internal -> original node id
	secAColPtr    = 4  // int64[n+1]: adjacency CSC column pointers
	secARowIdx    = 5  // int64[nnzA]: adjacency CSC row indices
	secAVal       = 6  // float64[nnzA]: adjacency CSC values
	secLinvColPtr = 7  // int64[n+1]: L^-1 CSC column pointers
	secLinvRowIdx = 8  // int64[nnzL]
	secLinvVal    = 9  // float64[nnzL]
	secUinvRowPtr = 10 // int64[n+1]: U^-1 CSR row pointers
	secUinvColIdx = 11 // int64[nnzU]
	secUinvVal    = 12 // float64[nnzU]
	secAmaxCol    = 13 // float64[n]: per-column max of A
	secSelfA      = 14 // float64[n]: diagonal of A
)

// metaTag opens the meta section so a v3 container holding something
// other than a core index is rejected before any array is interpreted.
const metaTag = "KDIXV3\x00\x00"

// metaSize is the fixed byte length of the meta section:
//
//	0   8  tag "KDIXV3\x00\x00"
//	8   8  uint64 n
//	16  8  float64 bits of the restart probability c
//	24  8  float64 bits of amax
//	32  8  uint64 reorder method
//	40  8  uint64 stats.NNZFactors
//	48  8  uint64 stats.NNZInverse
//	56  8  uint64 stats.Edges
//	64  8  float64 bits of stats.InverseRatio
const metaSize = 72

// metaBytes encodes the scalar header.
func (ix *Index) metaBytes() []byte {
	b := make([]byte, metaSize)
	copy(b, metaTag)
	le := binary.LittleEndian
	le.PutUint64(b[8:], uint64(ix.n))
	le.PutUint64(b[16:], math.Float64bits(ix.c))
	le.PutUint64(b[24:], math.Float64bits(ix.amax))
	le.PutUint64(b[32:], uint64(ix.stats.Method))
	le.PutUint64(b[40:], uint64(ix.stats.NNZFactors))
	le.PutUint64(b[48:], uint64(ix.stats.NNZInverse))
	le.PutUint64(b[56:], uint64(ix.stats.Edges))
	le.PutUint64(b[64:], math.Float64bits(ix.stats.InverseRatio))
	return b
}

// Save writes the index as a sectioned v3 container. The layout is what
// makes zero-copy loads possible: LoadIndex parses it from any stream,
// OpenIndexFile memory-maps it from a file.
func (ix *Index) Save(w io.Writer) error {
	sw := mmapio.NewWriter()
	sw.AddBytes(secMeta, ix.metaBytes())
	sw.AddInts(secPerm, ix.perm)
	sw.AddInts(secInvPerm, ix.inv)
	sw.AddInts(secAColPtr, ix.a.ColPtr)
	sw.AddInts(secARowIdx, ix.a.RowIdx)
	sw.AddFloats(secAVal, ix.a.Val)
	sw.AddInts(secLinvColPtr, ix.linv.ColPtr)
	sw.AddInts(secLinvRowIdx, ix.linv.RowIdx)
	sw.AddFloats(secLinvVal, ix.linv.Val)
	sw.AddInts(secUinvRowPtr, ix.uinv.RowPtr)
	sw.AddInts(secUinvColIdx, ix.uinv.ColIdx)
	sw.AddFloats(secUinvVal, ix.uinv.Val)
	sw.AddFloats(secAmaxCol, ix.amaxCol)
	sw.AddFloats(secSelfA, ix.selfA)
	_, err := sw.WriteTo(w)
	runtime.KeepAlive(ix) // sw holds slices of the backing
	if err != nil {
		return fmt.Errorf("core: writing index: %w", err)
	}
	return nil
}

// LoadIndex reads an index previously written by Save from a stream,
// always materialising it in private memory with every checksum
// verified — use OpenIndexFile to memory-map an index file instead.
// Anything but the current container is refused with
// ErrUnsupportedFormat.
func LoadIndex(r io.Reader) (*Index, error) {
	br := bufio.NewReader(r)
	head, err := br.Peek(len(mmapio.Magic))
	if err != nil {
		return nil, fmt.Errorf("core: reading index header: %w", err)
	}
	if string(head) != mmapio.Magic {
		return nil, fmt.Errorf("core: %w", ErrUnsupportedFormat)
	}
	blob, err := io.ReadAll(br)
	if err != nil {
		return nil, fmt.Errorf("core: reading index: %w", err)
	}
	f, err := mmapio.FromBytes(blob)
	if err != nil {
		return nil, fmt.Errorf("core: %w", containerErr(err))
	}
	return indexFromContainer(f, true)
}

// OpenIndexFile opens a saved index directly from the filesystem in the
// given mmapio mode: mmapio.ModeMmap (or ModeAuto on a supported
// platform) maps the file read-only and the returned index's arrays
// alias the mapping — near-instant opens, demand paging, shared
// physical memory; mmapio.ModeCopy forces a private copy with every
// checksum verified, sealed off the Go heap where the platform maps
// memory. Close releases either off-heap backing at once; otherwise it
// is released once the index becomes unreachable. Any mmap failure
// under ModeMmap is surfaced, never silently downgraded — a caller that
// demanded shared mappings must not silently get N private copies.
// Mapped reports which path was taken.
// A file that is not the current container is refused with
// ErrUnsupportedFormat.
func OpenIndexFile(path string, mode mmapio.Mode) (*Index, error) {
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
	f, err := mmapio.Open(path, mode)
	if err != nil {
		return nil, fmt.Errorf("core: opening %s: %w", path, containerErr(err))
	}
	ix, err := indexFromContainer(f, !f.Mapped())
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

// indexFromContainer builds an Index over a parsed container. With deep
// validation the factor arrays are fully range-checked (the copy-mode
// contract); without it only O(1)-per-section shape checks run, so a
// mapped open never faults in the data pages (corrupt indices surface as
// bounds panics at query time instead — the server recovers those to
// 500s — or via an explicit VerifyFile). It installs the factor arrays
// (possibly aliasing the PROT_READ mapping), so it sits on the
// //kdash:mutates-factors allowlist.
//
//kdash:mutates-factors
func indexFromContainer(f *mmapio.File, deep bool) (*Index, error) {
	meta, err := f.Bytes(secMeta)
	if err != nil {
		return nil, fmt.Errorf("core: corrupt index: %w", err)
	}
	if len(meta) != metaSize || string(meta[:8]) != metaTag {
		return nil, fmt.Errorf("core: not a K-dash v3 index (bad meta section)")
	}
	le := binary.LittleEndian
	ix := &Index{
		n:    int(le.Uint64(meta[8:])),
		c:    math.Float64frombits(le.Uint64(meta[16:])),
		amax: math.Float64frombits(le.Uint64(meta[24:])),
	}
	if ix.n <= 0 || ix.n > 1<<40 || ix.c <= 0 || ix.c >= 1 {
		return nil, fmt.Errorf("core: corrupt index (n=%d c=%v)", ix.n, ix.c)
	}
	ints := func(id uint32, dst *[]int) {
		if err == nil {
			*dst, err = f.Ints(id)
		}
	}
	floats := func(id uint32, dst *[]float64) {
		if err == nil {
			*dst, err = f.Floats(id)
		}
	}
	a := &sparse.CSC{Rows: ix.n, Cols: ix.n}
	linv := &sparse.CSC{Rows: ix.n, Cols: ix.n}
	uinv := &sparse.CSR{Rows: ix.n, Cols: ix.n}
	ints(secPerm, &ix.perm)
	ints(secInvPerm, &ix.inv)
	ints(secAColPtr, &a.ColPtr)
	ints(secARowIdx, &a.RowIdx)
	floats(secAVal, &a.Val)
	ints(secLinvColPtr, &linv.ColPtr)
	ints(secLinvRowIdx, &linv.RowIdx)
	floats(secLinvVal, &linv.Val)
	ints(secUinvRowPtr, &uinv.RowPtr)
	ints(secUinvColIdx, &uinv.ColIdx)
	floats(secUinvVal, &uinv.Val)
	floats(secAmaxCol, &ix.amaxCol)
	floats(secSelfA, &ix.selfA)
	if err != nil {
		return nil, fmt.Errorf("core: corrupt index: %w", err)
	}
	ix.a, ix.linv, ix.uinv = a, linv, uinv
	ix.stats = BuildStats{
		Method:       reorder.Method(le.Uint64(meta[32:])),
		NNZFactors:   int(le.Uint64(meta[40:])),
		NNZInverse:   int(le.Uint64(meta[48:])),
		Edges:        int(le.Uint64(meta[56:])),
		InverseRatio: math.Float64frombits(le.Uint64(meta[64:])),
	}
	if err := ix.checkShapes(); err != nil {
		return nil, err
	}
	if deep {
		if err := ix.validateLoaded(); err != nil {
			return nil, err
		}
		for i, p := range ix.perm {
			if ix.inv[p] != i {
				return nil, fmt.Errorf("core: corrupt index (inverse permutation disagrees at %d)", i)
			}
		}
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

// HeapBytes reports the bytes of index arrays currently on the Go heap:
// every index built in process (BuildIndex, Rebuild, the blocks a
// sharded Apply rebuilds) or loaded into a Go buffer (LoadIndex, copy
// mode where the platform cannot map memory), counted until the garbage
// collector finds its Index unreachable. Off-heap containers are
// mmapio.ReadStats's.
func HeapBytes() int64 { return heapBytes.Load() }

// trackHeap counts n bytes of ix's arrays as heap-held for ix's lifetime.
func trackHeap(ix *Index, n int64) {
	heapBytes.Add(n)
	runtime.AddCleanup(ix, untrackHeap, n)
}

func untrackHeap(n int64) { heapBytes.Add(-n) }

// arrayBytes is the byte size of the index's arrays (what Save writes,
// less the container's table and padding).
func (ix *Index) arrayBytes() int64 {
	ints := len(ix.perm) + len(ix.inv) + len(ix.a.ColPtr) + len(ix.a.RowIdx) +
		len(ix.linv.ColPtr) + len(ix.linv.RowIdx) + len(ix.uinv.RowPtr) + len(ix.uinv.ColIdx)
	floats := len(ix.a.Val) + len(ix.linv.Val) + len(ix.uinv.Val) + len(ix.amaxCol) + len(ix.selfA)
	return 8 * int64(ints+floats)
}

// checkShapes runs the O(1)-per-section structural checks both load
// modes share: array lengths against n and each other, and pointer-array
// endpoints (which touch only the first and last page of each pointer
// section).
func (ix *Index) checkShapes() error {
	n := ix.n
	if len(ix.perm) != n || len(ix.inv) != n || len(ix.amaxCol) != n || len(ix.selfA) != n {
		return fmt.Errorf("core: corrupt index (per-node sections sized %d/%d/%d/%d, want %d)",
			len(ix.perm), len(ix.inv), len(ix.amaxCol), len(ix.selfA), n)
	}
	check := func(name string, ptr, idx []int, val []float64) error {
		if len(ptr) != n+1 || ptr[0] != 0 || ptr[n] != len(idx) || len(idx) != len(val) {
			return fmt.Errorf("core: corrupt index (%s pointers: %d/%d/%d entries for n=%d)", name, len(ptr), len(idx), len(val), n)
		}
		return nil
	}
	if err := check("adjacency", ix.a.ColPtr, ix.a.RowIdx, ix.a.Val); err != nil {
		return err
	}
	if err := check("L-inverse", ix.linv.ColPtr, ix.linv.RowIdx, ix.linv.Val); err != nil {
		return err
	}
	return check("U-inverse", ix.uinv.RowPtr, ix.uinv.ColIdx, ix.uinv.Val)
}

// VerifyFile checks every section checksum of the index's backing
// container and deep-validates the factor arrays — the explicit fsck for
// mapped indexes, whose open path skips both to stay O(#sections). It
// faults in the entire file. Indexes without a backing container (built
// in process) verify trivially.
func (ix *Index) VerifyFile() error {
	if ix.backing == nil {
		return nil
	}
	if err := ix.backing.Verify(); err != nil {
		return err
	}
	return ix.validateLoaded()
}

// Mapped reports whether the index's arrays alias a read-only file
// mapping (true only for OpenIndexFile in an mmap mode).
func (ix *Index) Mapped() bool { return ix.backing != nil && ix.backing.Mapped() }

// MappedBytes is the byte size of the index's read-only file mapping —
// the address space demand paging serves queries from. It is 0 for any
// unmapped index (built in process, parsed from a stream, or opened in
// copy mode), so observability sums over it never mistake private
// memory for a shared mapping.
func (ix *Index) MappedBytes() int {
	if !ix.Mapped() {
		return 0
	}
	return ix.backing.Size()
}

// Close releases the index's off-heap backing — a file mapping or a
// sealed copy — now rather than when the index becomes unreachable. An
// index must not be used after Close: its arrays alias that memory and
// reads fault once it is gone. Indexes on the Go heap close as a
// harmless no-op.
func (ix *Index) Close() error {
	if ix.backing == nil {
		return nil
	}
	f := ix.backing
	ix.backing = nil
	return f.Close()
}

// validateLoaded sanity-checks array shapes and index ranges so a corrupt
// file fails loudly at load time instead of panicking mid-query.
func (ix *Index) validateLoaded() error {
	n := ix.n
	if len(ix.perm) != n || len(ix.amaxCol) != n || len(ix.selfA) != n {
		return fmt.Errorf("core: corrupt index (per-node arrays sized %d/%d/%d, want %d)",
			len(ix.perm), len(ix.amaxCol), len(ix.selfA), n)
	}
	seen := make([]bool, n)
	for _, p := range ix.perm {
		if p < 0 || p >= n || seen[p] {
			return fmt.Errorf("core: corrupt index (perm is not a permutation)")
		}
		seen[p] = true
	}
	checkCSC := func(name string, m *sparse.CSC) error {
		if len(m.ColPtr) != n+1 || m.ColPtr[0] != 0 || m.ColPtr[n] != len(m.RowIdx) || len(m.RowIdx) != len(m.Val) {
			return fmt.Errorf("core: corrupt index (%s pointers)", name)
		}
		for c := 0; c < n; c++ {
			if m.ColPtr[c] > m.ColPtr[c+1] {
				return fmt.Errorf("core: corrupt index (%s column %d)", name, c)
			}
		}
		for _, r := range m.RowIdx {
			if r < 0 || r >= n {
				return fmt.Errorf("core: corrupt index (%s row index %d)", name, r)
			}
		}
		return nil
	}
	if err := checkCSC("adjacency", ix.a); err != nil {
		return err
	}
	if err := checkCSC("L-inverse", ix.linv); err != nil {
		return err
	}
	u := ix.uinv
	if len(u.RowPtr) != n+1 || u.RowPtr[0] != 0 || u.RowPtr[n] != len(u.ColIdx) || len(u.ColIdx) != len(u.Val) {
		return fmt.Errorf("core: corrupt index (U-inverse pointers)")
	}
	for _, c := range u.ColIdx {
		if c < 0 || c >= n {
			return fmt.Errorf("core: corrupt index (U-inverse column index %d)", c)
		}
	}
	return nil
}
