// Package mmapio implements the sectioned on-disk container behind the
// K-dash index format. Arrays are stored as page-aligned, little-endian,
// natively-typed sections (int64 / int32 / float64 / raw bytes) described
// by a checksummed section table, so once a file is in memory each
// section is wrapped directly as a Go slice via unsafe.Slice, with no
// decoding.
//
// # File layout
//
// All integers are little-endian. Offsets are from the start of the file.
//
//	offset  size  field
//	0       8     magic "KDSECT1\x00"
//	8       4     uint32 container version (currently 1)
//	12      4     uint32 section count
//	16      8     uint64 file size (must equal the real size)
//	24      4     uint32 section alignment (power of two, normally 4096)
//	28      4     uint32 CRC-32C of the section table bytes
//	32      32*k  section table, one 32-byte entry per section:
//	                uint32 id       caller-chosen section identifier
//	                uint32 kind     1 = int64, 2 = float64, 3 = bytes,
//	                                6 = int32 (4 and 5 are retired)
//	                uint64 offset   start of the section data (aligned)
//	                uint64 count    element count (bytes for kind 3)
//	                uint32 crc      CRC-32C of the section data bytes
//	                uint32 reserved (zero)
//	...           section data in table order, each section starting at
//	              its aligned offset, zero padding in the gaps
//
// # Opening
//
// Open reads the whole file into private memory, then validates the
// header and section table and verifies every section checksum before
// it returns: a damaged file is refused at open, never served. On Linux
// (little-endian, 64-bit int) that memory is a private anonymous mapping
// outside the Go heap, sealed PROT_READ once the bytes are in: the
// garbage collector never scans or paces over it, and a write through a
// section slice faults. Elsewhere the file is read into a Go byte slice;
// on a little-endian host its int32, float64 and byte sections are still
// wrapped zero-copy (int64 sections too where Go ints are 64-bit),
// otherwise they are decoded element by element, so the format works
// (slowly) on any architecture Go supports.
//
// # Release
//
// A sealed copy holds memory the garbage collector does not manage:
// Close unmaps it, and every slice taken from the File is invalid
// afterwards. Close is idempotent and safe to race, so an owner may
// both register it as a cleanup and call it explicitly.
// ReadStats reports how many such containers the process opened and
// released, and the bytes still held.
//
// # Mutation discipline
//
// Slices returned by Ints, Int32s, Floats and Bytes are read-only by
// contract.
// In a sealed copy a write is a segfault; in a heap copy it would
// silently corrupt sibling sections sharing the buffer. Callers that
// need to mutate must copy out first.
package mmapio

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"unsafe"
)

// Magic identifies a sectioned container file.
const Magic = "KDSECT1\x00"

// containerVersion is bumped whenever the header or table layout changes.
const containerVersion = 1

// DefaultAlign is the section alignment Save uses: one 4 KiB page, so
// every section starts page- (and therefore 8-byte-) aligned and the
// kernel can fault sections independently.
const DefaultAlign = 4096

// Section kinds.
const (
	KindInt64   = 1 // elements are int64 (Go int on 64-bit platforms)
	KindFloat64 = 2 // elements are float64 (stored as IEEE-754 bits)
	KindBytes   = 3 // raw bytes; count is the byte length
	// Kind 4 held the int32 factor strips of an index generation that is
	// no longer read and kind 5 was a float32 section no format ever
	// wrote; both stay retired, so a file carrying either is rejected as
	// an unknown kind.
	KindInt32 = 6 // elements are int32 (row and column ids)
)

// ErrUnknownKind is wrapped by the parse error for a section whose kind
// this reader does not know, so callers can tell a file from a retired
// or future generation apart from a damaged one.
var ErrUnknownKind = errors.New("unknown kind")

const (
	headerSize = 32
	entrySize  = 32
	// maxSections bounds table allocation on corrupt counts; a K-dash
	// index needs ~16 sections, so 1<<16 is far beyond any real file.
	maxSections = 1 << 16
	// maxAlign bounds the alignment field so padding arithmetic cannot
	// overflow on corrupt headers.
	maxAlign = 1 << 24
)

// castagnoli is the CRC-32C table (the SSE4.2-accelerated polynomial).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// hostLittleEndian reports whether the running machine stores integers
// little-endian, detected once at init.
var hostLittleEndian = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// CanZeroCopy reports whether sections can wrap file bytes directly on
// this machine: int64/float64 sections are little-endian on disk and Go
// ints must be 64-bit for []int to alias an int64 section.
func CanZeroCopy() bool {
	return hostLittleEndian && strconv.IntSize == 64
}

// section is one decoded table entry.
type section struct {
	id    uint32
	kind  uint32
	off   uint64
	count uint64
	crc   uint32
}

// knownKind reports whether this reader decodes sections of kind.
func knownKind(kind uint32) bool {
	switch kind {
	case KindInt64, KindFloat64, KindBytes, KindInt32:
		return true
	}
	return false
}

// elemSize is the byte width of one element of a section kind.
func elemSize(kind uint32) uint64 {
	switch kind {
	case KindBytes:
		return 1
	case KindInt32:
		return 4
	default:
		return 8
	}
}

// byteLen is the section's data size in bytes.
func (s *section) byteLen() uint64 {
	return s.count * elemSize(s.kind)
}

// File is an open sectioned container. All accessors are safe for
// concurrent use; the returned slices are read-only (see the package
// comment for the mutation discipline).
type File struct {
	data     []byte // the whole file: a sealed copy or a heap copy
	sections map[uint32]section
	order    []uint32 // section ids in table order

	// release unmaps off-heap data (nil for a heap copy); closeOnce
	// makes Close run it exactly once however many callers race.
	release   func() error
	closeOnce sync.Once
}

// Stats is the process-wide account of the containers held outside the
// Go heap, the sealed copies. Heap copies are the garbage collector's
// and are not counted.
type Stats struct {
	Opened        int64 // containers opened since process start
	Released      int64 // of those, released by Close
	ReleasedBytes int64 // bytes the releases returned to the OS
	SealedBytes   int64 // bytes of sealed copies still held
}

var statOpened, statReleased, statReleasedBytes, statSealed atomic.Int64

// ReadStats returns the current off-heap container account.
func ReadStats() Stats {
	return Stats{
		Opened:        statOpened.Load(),
		Released:      statReleased.Load(),
		ReleasedBytes: statReleasedBytes.Load(),
		SealedBytes:   statSealed.Load(),
	}
}

// offHeap wraps a sealed copy and accounts for it until Close hands it
// to unmap.
func offHeap(data []byte, unmap func([]byte) error) *File {
	n := int64(len(data))
	statOpened.Add(1)
	statSealed.Add(n)
	return &File{data: data, release: func() error {
		statSealed.Add(-n)
		statReleased.Add(1)
		statReleasedBytes.Add(n)
		return unmap(data)
	}}
}

// Writer accumulates sections and writes a container file. Sections are
// written in Add order; ids must be unique.
type Writer struct {
	sections []wsection
	align    int
}

type wsection struct {
	id   uint32
	kind uint32
	ints []int
	i32s []int32
	f64s []float64
	raw  []byte
}

// NewWriter returns an empty Writer using DefaultAlign.
func NewWriter() *Writer { return &Writer{align: DefaultAlign} }

// AddInts appends an int64 section. The slice is referenced, not copied;
// it must not change until WriteTo returns.
func (w *Writer) AddInts(id uint32, xs []int) {
	w.sections = append(w.sections, wsection{id: id, kind: KindInt64, ints: xs})
}

// AddInt32s appends an int32 section (same aliasing rule as AddInts).
func (w *Writer) AddInt32s(id uint32, xs []int32) {
	w.sections = append(w.sections, wsection{id: id, kind: KindInt32, i32s: xs})
}

// AddFloats appends a float64 section (same aliasing rule as AddInts).
func (w *Writer) AddFloats(id uint32, xs []float64) {
	w.sections = append(w.sections, wsection{id: id, kind: KindFloat64, f64s: xs})
}

// AddBytes appends a raw byte section (same aliasing rule as AddInts).
func (w *Writer) AddBytes(id uint32, b []byte) {
	w.sections = append(w.sections, wsection{id: id, kind: KindBytes, raw: b})
}

// alignUp rounds n up to the next multiple of align.
func alignUp(n uint64, align uint64) uint64 {
	return (n + align - 1) / align * align
}

// payload returns the section's data as little-endian bytes. On a
// zero-copy platform typed slices are reinterpreted in place; otherwise
// they are encoded into a fresh buffer.
func (s *wsection) payload() []byte {
	switch s.kind {
	case KindBytes:
		return s.raw
	case KindInt64:
		if len(s.ints) == 0 {
			return nil
		}
		if CanZeroCopy() {
			return unsafe.Slice((*byte)(unsafe.Pointer(&s.ints[0])), len(s.ints)*8)
		}
		buf := make([]byte, len(s.ints)*8)
		for i, v := range s.ints {
			binary.LittleEndian.PutUint64(buf[i*8:], uint64(v))
		}
		return buf
	case KindInt32:
		if len(s.i32s) == 0 {
			return nil
		}
		if hostLittleEndian {
			return unsafe.Slice((*byte)(unsafe.Pointer(&s.i32s[0])), len(s.i32s)*4)
		}
		buf := make([]byte, len(s.i32s)*4)
		for i, v := range s.i32s {
			binary.LittleEndian.PutUint32(buf[i*4:], uint32(v))
		}
		return buf
	default:
		if len(s.f64s) == 0 {
			return nil
		}
		if CanZeroCopy() {
			return unsafe.Slice((*byte)(unsafe.Pointer(&s.f64s[0])), len(s.f64s)*8)
		}
		buf := make([]byte, len(s.f64s)*8)
		for i, v := range s.f64s {
			binary.LittleEndian.PutUint64(buf[i*8:], math.Float64bits(v))
		}
		return buf
	}
}

func (s *wsection) count() uint64 {
	switch s.kind {
	case KindBytes:
		return uint64(len(s.raw))
	case KindInt64:
		return uint64(len(s.ints))
	case KindInt32:
		return uint64(len(s.i32s))
	default:
		return uint64(len(s.f64s))
	}
}

// WriteTo lays the sections out and writes the complete container,
// implementing io.WriterTo.
func (w *Writer) WriteTo(out io.Writer) (int64, error) {
	align := uint64(w.align)
	k := len(w.sections)
	table := make([]byte, k*entrySize)
	payloads := make([][]byte, k)
	seen := make(map[uint32]bool, k)
	off := alignUp(headerSize+uint64(len(table)), align)
	for i := range w.sections {
		s := &w.sections[i]
		if seen[s.id] {
			return 0, fmt.Errorf("mmapio: duplicate section id %d", s.id)
		}
		seen[s.id] = true
		payloads[i] = s.payload()
		e := table[i*entrySize:]
		binary.LittleEndian.PutUint32(e[0:], s.id)
		binary.LittleEndian.PutUint32(e[4:], s.kind)
		binary.LittleEndian.PutUint64(e[8:], off)
		binary.LittleEndian.PutUint64(e[16:], s.count())
		binary.LittleEndian.PutUint32(e[24:], crc32.Checksum(payloads[i], castagnoli))
		off = alignUp(off+uint64(len(payloads[i])), align)
	}
	fileSize := off
	if k == 0 {
		fileSize = alignUp(headerSize, align)
	}

	head := make([]byte, headerSize)
	copy(head, Magic)
	binary.LittleEndian.PutUint32(head[8:], containerVersion)
	binary.LittleEndian.PutUint32(head[12:], uint32(k))
	binary.LittleEndian.PutUint64(head[16:], fileSize)
	binary.LittleEndian.PutUint32(head[24:], uint32(align))
	binary.LittleEndian.PutUint32(head[28:], crc32.Checksum(table, castagnoli))

	cw := &countWriter{w: out}
	if _, err := cw.Write(head); err != nil {
		return cw.n, err
	}
	if _, err := cw.Write(table); err != nil {
		return cw.n, err
	}
	pad := make([]byte, align)
	for i, p := range payloads {
		target := int64(binary.LittleEndian.Uint64(table[i*entrySize+8:]))
		if err := cw.pad(pad, target); err != nil {
			return cw.n, err
		}
		if _, err := cw.Write(p); err != nil {
			return cw.n, err
		}
	}
	if err := cw.pad(pad, int64(fileSize)); err != nil {
		return cw.n, err
	}
	return cw.n, nil
}

// countWriter tracks the bytes written so padding can be emitted up to
// absolute offsets.
type countWriter struct {
	w io.Writer
	n int64
}

func (c *countWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

func (c *countWriter) pad(zeros []byte, target int64) error {
	for c.n < target {
		chunk := target - c.n
		if chunk > int64(len(zeros)) {
			chunk = int64(len(zeros))
		}
		if _, err := c.Write(zeros[:chunk]); err != nil {
			return err
		}
	}
	return nil
}

// Open reads path into private memory (sealed off-heap memory where
// the platform maps memory, a Go byte slice elsewhere), validates the
// section table and verifies every checksum. The returned File must be
// closed when no longer needed; once its memory is off the Go heap
// (OffHeap), slices obtained from it become invalid (and will fault)
// after Close.
func Open(path string) (*File, error) {
	var f *File
	var err error
	if sealSupported && CanZeroCopy() {
		f, err = readSealed(path)
	} else {
		var data []byte
		data, err = os.ReadFile(path)
		f = &File{data: data}
	}
	if err != nil {
		return nil, fmt.Errorf("mmapio: reading %s: %w", path, err)
	}
	if err := f.check(); err != nil {
		f.Close()
		return nil, fmt.Errorf("mmapio: %s: %w", path, err)
	}
	return f, nil
}

// FromBytes parses an in-memory container image as Open does: the
// section table is validated and every section checksum is verified
// eagerly. The image is referenced, not copied.
//
//kdash:testonly
func FromBytes(data []byte) (*File, error) {
	f := &File{data: data}
	if err := f.check(); err != nil {
		return nil, err
	}
	return f, nil
}

// check is Open's validation: the table, then every section checksum.
func (f *File) check() error {
	if err := f.parse(); err != nil {
		return err
	}
	return f.verify()
}

// parse validates the header and section table (bounds, alignment,
// overlap via monotone offsets, table checksum). It never touches
// section data.
func (f *File) parse() error {
	data := f.data
	if len(data) < headerSize || string(data[:8]) != Magic {
		return fmt.Errorf("mmapio: not a sectioned container (bad magic)")
	}
	if v := binary.LittleEndian.Uint32(data[8:]); v != containerVersion {
		return fmt.Errorf("mmapio: unsupported container version %d (want %d)", v, containerVersion)
	}
	k := binary.LittleEndian.Uint32(data[12:])
	size := binary.LittleEndian.Uint64(data[16:])
	align := uint64(binary.LittleEndian.Uint32(data[24:]))
	tableCRC := binary.LittleEndian.Uint32(data[28:])
	if k > maxSections {
		return fmt.Errorf("mmapio: corrupt header (%d sections)", k)
	}
	if size != uint64(len(data)) {
		return fmt.Errorf("mmapio: header claims %d bytes, file has %d", size, len(data))
	}
	if align < 8 || align > maxAlign || align&(align-1) != 0 {
		return fmt.Errorf("mmapio: corrupt header (alignment %d)", align)
	}
	tableEnd := headerSize + uint64(k)*entrySize
	if tableEnd > uint64(len(data)) {
		return fmt.Errorf("mmapio: truncated section table (%d sections, %d bytes)", k, len(data))
	}
	table := data[headerSize:tableEnd]
	if crc32.Checksum(table, castagnoli) != tableCRC {
		return fmt.Errorf("mmapio: section table checksum mismatch")
	}
	f.sections = make(map[uint32]section, k)
	f.order = make([]uint32, 0, k)
	prevEnd := tableEnd
	for i := uint64(0); i < uint64(k); i++ {
		e := table[i*entrySize:]
		s := section{
			id:    binary.LittleEndian.Uint32(e[0:]),
			kind:  binary.LittleEndian.Uint32(e[4:]),
			off:   binary.LittleEndian.Uint64(e[8:]),
			count: binary.LittleEndian.Uint64(e[16:]),
			crc:   binary.LittleEndian.Uint32(e[24:]),
		}
		if !knownKind(s.kind) {
			return fmt.Errorf("mmapio: section %d has %w %d", s.id, ErrUnknownKind, s.kind)
		}
		if s.off%align != 0 {
			return fmt.Errorf("mmapio: section %d misaligned (offset %d, alignment %d)", s.id, s.off, align)
		}
		if s.off > uint64(len(data)) {
			return fmt.Errorf("mmapio: section %d out of bounds (offset %d, file %d)", s.id, s.off, len(data))
		}
		if s.count > (uint64(len(data))-s.off)/elemSize(s.kind) {
			return fmt.Errorf("mmapio: section %d out of bounds (offset %d, count %d, file %d)", s.id, s.off, s.count, len(data))
		}
		if s.off < prevEnd {
			return fmt.Errorf("mmapio: section %d overlaps the preceding section", s.id)
		}
		prevEnd = s.off + s.byteLen()
		if _, dup := f.sections[s.id]; dup {
			return fmt.Errorf("mmapio: duplicate section id %d", s.id)
		}
		f.sections[s.id] = s
		f.order = append(f.order, s.id)
	}
	return nil
}

// verify checks every section's data checksum.
func (f *File) verify() error {
	for _, id := range f.order {
		s := f.sections[id]
		data := f.data[s.off : s.off+s.byteLen()]
		if crc32.Checksum(data, castagnoli) != s.crc {
			return fmt.Errorf("mmapio: section %d checksum mismatch", id)
		}
	}
	return nil
}

// OffHeap reports whether the container's bytes live outside the Go
// heap, in a sealed copy, so that only Close returns them.
func (f *File) OffHeap() bool { return f.release != nil }

// Size is the container's total byte size.
func (f *File) Size() int { return len(f.data) }

func (f *File) lookup(id uint32, kind uint32) (section, error) {
	s, ok := f.sections[id]
	if !ok {
		return section{}, fmt.Errorf("mmapio: missing section %d", id)
	}
	if s.kind != kind {
		return section{}, fmt.Errorf("mmapio: section %d has kind %d, want %d", id, s.kind, kind)
	}
	return s, nil
}

// Ints returns section id as an []int. Zero-copy where the platform
// allows (the slice aliases the file; treat it as read-only), decoded
// into fresh memory otherwise.
func (f *File) Ints(id uint32) ([]int, error) {
	s, err := f.lookup(id, KindInt64)
	if err != nil {
		return nil, err
	}
	if s.count == 0 {
		return []int{}, nil
	}
	b := f.data[s.off : s.off+s.count*8]
	if CanZeroCopy() {
		return unsafe.Slice((*int)(unsafe.Pointer(&b[0])), s.count), nil
	}
	out := make([]int, s.count)
	for i := range out {
		out[i] = int(binary.LittleEndian.Uint64(b[i*8:]))
	}
	return out, nil
}

// Int32s returns section id as an []int32 (same contract as Ints):
// zero-copy on any little-endian host.
func (f *File) Int32s(id uint32) ([]int32, error) {
	s, err := f.lookup(id, KindInt32)
	if err != nil {
		return nil, err
	}
	if s.count == 0 {
		return []int32{}, nil
	}
	b := f.data[s.off : s.off+s.count*4]
	if hostLittleEndian {
		return unsafe.Slice((*int32)(unsafe.Pointer(&b[0])), s.count), nil
	}
	out := make([]int32, s.count)
	for i := range out {
		out[i] = int32(binary.LittleEndian.Uint32(b[i*4:]))
	}
	return out, nil
}

// Floats returns section id as a []float64 (same contract as Ints).
func (f *File) Floats(id uint32) ([]float64, error) {
	s, err := f.lookup(id, KindFloat64)
	if err != nil {
		return nil, err
	}
	if s.count == 0 {
		return []float64{}, nil
	}
	b := f.data[s.off : s.off+s.count*8]
	if hostLittleEndian {
		return unsafe.Slice((*float64)(unsafe.Pointer(&b[0])), s.count), nil
	}
	out := make([]float64, s.count)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[i*8:]))
	}
	return out, nil
}

// Bytes returns section id's raw bytes (aliasing the file; read-only).
func (f *File) Bytes(id uint32) ([]byte, error) {
	s, err := f.lookup(id, KindBytes)
	if err != nil {
		return nil, err
	}
	return f.data[s.off : s.off+s.count], nil
}

// Close releases off-heap memory: after it every slice previously
// returned by an OffHeap File is invalid, and reads fault. A heap copy
// keeps its garbage-collected buffer alive through the slices, so Close
// is a no-op for it. Close may be called any number of times, from any
// goroutines at once; only the first call releases, and it alone
// reports the release's error.
func (f *File) Close() error {
	var err error
	f.closeOnce.Do(func() {
		if f.release != nil {
			err = f.release()
		}
	})
	return err
}
