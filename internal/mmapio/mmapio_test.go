package mmapio

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// writeTestFile writes a container with one int, one float and one byte
// section and returns its path plus the source arrays.
func writeTestFile(t *testing.T) (string, []int, []float64, []byte) {
	t.Helper()
	ints := []int{0, 1, -7, 1 << 40, -(1 << 40), 42}
	floats := []float64{0, 1.5, -math.Pi, math.Inf(1), math.SmallestNonzeroFloat64}
	raw := []byte("kdash-test-section")
	w := NewWriter()
	w.AddInts(1, ints)
	w.AddFloats(2, floats)
	w.AddBytes(3, raw)
	var buf bytes.Buffer
	if _, err := w.WriteTo(&buf); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	path := filepath.Join(t.TempDir(), "test.sec")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path, ints, floats, raw
}

func checkContents(t *testing.T, f *File, ints []int, floats []float64, raw []byte) {
	t.Helper()
	gotInts, err := f.Ints(1)
	if err != nil {
		t.Fatalf("Ints: %v", err)
	}
	for i := range ints {
		if gotInts[i] != ints[i] {
			t.Fatalf("int[%d] = %d, want %d", i, gotInts[i], ints[i])
		}
	}
	gotFloats, err := f.Floats(2)
	if err != nil {
		t.Fatalf("Floats: %v", err)
	}
	for i := range floats {
		if math.Float64bits(gotFloats[i]) != math.Float64bits(floats[i]) {
			t.Fatalf("float[%d] = %v, want bit-identical %v", i, gotFloats[i], floats[i])
		}
	}
	gotRaw, err := f.Bytes(3)
	if err != nil {
		t.Fatalf("Bytes: %v", err)
	}
	if !bytes.Equal(gotRaw, raw) {
		t.Fatalf("Bytes = %q, want %q", gotRaw, raw)
	}
}

func TestRoundTripModes(t *testing.T) {
	path, ints, floats, raw := writeTestFile(t)
	modes := []Mode{ModeAuto, ModeCopy}
	if MmapSupported() && CanZeroCopy() {
		modes = append(modes, ModeMmap)
	}
	for _, mode := range modes {
		f, err := Open(path, mode)
		if err != nil {
			t.Fatalf("Open(%v): %v", mode, err)
		}
		checkContents(t, f, ints, floats, raw)
		if mode == ModeMmap && !f.Mapped() {
			t.Fatalf("ModeMmap returned an unmapped file")
		}
		if err := f.Verify(); err != nil {
			t.Fatalf("Verify(%v): %v", mode, err)
		}
		if err := f.Close(); err != nil {
			t.Fatalf("Close(%v): %v", mode, err)
		}
	}
}

// TestOffHeapAccounting pins where each mode's bytes live and that
// ReadStats follows them: a sealed copy and a file mapping each count as
// one opened container holding the file's size until Close, which
// releases it exactly once however often it is called.
func TestOffHeapAccounting(t *testing.T) {
	if !MmapSupported() || !CanZeroCopy() {
		t.Skip("containers stay on the Go heap on this platform")
	}
	path, ints, floats, raw := writeTestFile(t)
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	size := fi.Size()
	for _, mode := range []Mode{ModeCopy, ModeMmap} {
		before := ReadStats()
		f, err := Open(path, mode)
		if err != nil {
			t.Fatal(err)
		}
		checkContents(t, f, ints, floats, raw)
		if !f.OffHeap() || f.Mapped() != (mode == ModeMmap) {
			t.Fatalf("%v: OffHeap=%v Mapped=%v", mode, f.OffHeap(), f.Mapped())
		}
		held := ReadStats()
		heldBytes := held.SealedBytes - before.SealedBytes
		if mode == ModeMmap {
			heldBytes = held.MappedBytes - before.MappedBytes
		}
		if held.Opened-before.Opened != 1 || heldBytes != size {
			t.Fatalf("%v: opened %d containers holding %d bytes, want 1 holding %d", mode, held.Opened-before.Opened, heldBytes, size)
		}
		for i := 0; i < 3; i++ {
			if err := f.Close(); err != nil {
				t.Fatalf("%v: Close #%d: %v", mode, i+1, err)
			}
		}
		after := ReadStats()
		if after.Released-before.Released != 1 || after.ReleasedBytes-before.ReleasedBytes != size ||
			after.SealedBytes != before.SealedBytes || after.MappedBytes != before.MappedBytes {
			t.Fatalf("%v: after three Closes %+v, before open %+v", mode, after, before)
		}
	}
	img, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if f, err := FromBytes(img); err != nil || f.OffHeap() {
		t.Fatalf("FromBytes: OffHeap=%v err=%v, want a heap copy", f != nil && f.OffHeap(), err)
	}
}

// TestCloseRacesCleanup closes each container from several goroutines
// at once while a runtime cleanup on its owner races to close it too,
// the pairing core.Index relies on. Run it under -race: the release must
// happen exactly once, with no data race between the callers.
func TestCloseRacesCleanup(t *testing.T) {
	if !MmapSupported() || !CanZeroCopy() {
		t.Skip("containers stay on the Go heap on this platform")
	}
	path, _, _, _ := writeTestFile(t)
	type owner struct{ f *File }
	type arg struct {
		f    *File
		done chan struct{}
	}
	for i := 0; i < 40; i++ {
		mode := []Mode{ModeCopy, ModeMmap}[i%2]
		before := ReadStats()
		f, err := Open(path, mode)
		if err != nil {
			t.Fatal(err)
		}
		start := make(chan struct{})
		var wg sync.WaitGroup
		for g := 0; g < 3; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				if err := f.Close(); err != nil {
					t.Errorf("explicit Close: %v", err)
				}
			}()
		}
		// The owner is unreachable as soon as its cleanup is registered.
		cleaned := make(chan struct{})
		runtime.AddCleanup(&owner{f: f}, func(a arg) {
			a.f.Close()
			close(a.done)
		}, arg{f, cleaned})
		close(start)
		runtime.GC()
		wg.Wait()
		for waited := false; !waited; {
			select {
			case <-cleaned:
				waited = true
			case <-time.After(10 * time.Millisecond):
				runtime.GC()
			}
		}
		if got := ReadStats().Released - before.Released; got != 1 {
			t.Fatalf("round %d (%v): %d releases, want exactly 1", i, mode, got)
		}
	}
}

func TestSectionAlignment(t *testing.T) {
	path, _, _, _ := writeTestFile(t)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	k := binary.LittleEndian.Uint32(data[12:])
	for i := uint32(0); i < k; i++ {
		off := binary.LittleEndian.Uint64(data[headerSize+i*entrySize+8:])
		if off%DefaultAlign != 0 {
			t.Fatalf("section %d offset %d not %d-aligned", i, off, DefaultAlign)
		}
	}
}

func TestFromBytesEmptyWriter(t *testing.T) {
	var buf bytes.Buffer
	if _, err := NewWriter().WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	f, err := FromBytes(buf.Bytes())
	if err != nil {
		t.Fatalf("FromBytes(empty container): %v", err)
	}
	if _, err := f.Ints(1); err == nil {
		t.Fatal("empty container yields a section")
	}
}

// corrupt returns a fresh copy of the image with fn applied.
func corrupt(img []byte, fn func(b []byte) []byte) []byte {
	b := append([]byte(nil), img...)
	return fn(b)
}

func TestCorruptInputs(t *testing.T) {
	path, _, _, _ := writeTestFile(t)
	img, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	reseal := func(b []byte) []byte {
		// Recompute the table CRC so corruption below it is what fails.
		k := binary.LittleEndian.Uint32(b[12:])
		table := b[headerSize : headerSize+uint64(k)*entrySize]
		binary.LittleEndian.PutUint32(b[28:], crc32.Checksum(table, castagnoli))
		return b
	}
	cases := []struct {
		name string
		img  []byte
		want string
	}{
		{"bad magic", corrupt(img, func(b []byte) []byte { b[0] = 'X'; return b }), "bad magic"},
		{"short file", img[:headerSize-1], "bad magic"},
		{"bad version", corrupt(img, func(b []byte) []byte { b[8] = 99; return b }), "unsupported container version"},
		{"size mismatch", img[:len(img)-1], "file has"},
		{"truncated table", corrupt(img, func(b []byte) []byte {
			// Claim many more sections than the file holds, size patched to match len.
			binary.LittleEndian.PutUint32(b[12:], 1<<15)
			binary.LittleEndian.PutUint64(b[16:], uint64(len(b)))
			return b
		}), "truncated section table"},
		{"absurd section count", corrupt(img, func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[12:], maxSections+1)
			return b
		}), "corrupt header"},
		{"bad alignment", corrupt(img, func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[24:], 3)
			return b
		}), "alignment"},
		{"table checksum", corrupt(img, func(b []byte) []byte {
			b[headerSize] ^= 0xff // flip a table byte without resealing
			return b
		}), "section table checksum mismatch"},
		{"misaligned offset", corrupt(img, func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[headerSize+8:], DefaultAlign+8)
			return reseal(b)
		}), "misaligned"},
		{"offset out of bounds", corrupt(img, func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[headerSize+8:], 1<<40)
			return reseal(b)
		}), "out of bounds"},
		{"count out of bounds", corrupt(img, func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[headerSize+16:], 1<<40)
			return reseal(b)
		}), "out of bounds"},
		{"unknown kind", corrupt(img, func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[headerSize+4:], 77)
			return reseal(b)
		}), "unknown kind"},
		{"retired int32 kind", corrupt(img, func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[headerSize+4:], 4)
			return reseal(b)
		}), "unknown kind 4"},
		{"retired float32 kind", corrupt(img, func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[headerSize+4:], 5)
			return reseal(b)
		}), "unknown kind 5"},
		{"data checksum", corrupt(img, func(b []byte) []byte {
			b[DefaultAlign] ^= 0xff // first data byte of section 1
			return b
		}), "section 1 checksum mismatch"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := FromBytes(tc.img)
			if err == nil {
				t.Fatalf("FromBytes accepted corrupt input")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestOverlapRejected(t *testing.T) {
	// Hand-build a table whose second section overlaps the first.
	w := NewWriter()
	w.AddInts(1, make([]int, DefaultAlign)) // > one page of data
	w.AddInts(2, []int{1})
	var buf bytes.Buffer
	if _, err := w.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	img := buf.Bytes()
	// Point section 2 back at section 1's page.
	binary.LittleEndian.PutUint64(img[headerSize+entrySize+8:], DefaultAlign)
	k := binary.LittleEndian.Uint32(img[12:])
	table := img[headerSize : headerSize+uint64(k)*entrySize]
	binary.LittleEndian.PutUint32(img[28:], crc32.Checksum(table, castagnoli))
	if _, err := FromBytes(img); err == nil || !strings.Contains(err.Error(), "overlap") {
		t.Fatalf("overlapping sections accepted (err=%v)", err)
	}
}

func TestDuplicateSectionID(t *testing.T) {
	w := NewWriter()
	w.AddInts(1, []int{1})
	w.AddInts(1, []int{2})
	if _, err := w.WriteTo(&bytes.Buffer{}); err == nil {
		t.Fatal("duplicate section id accepted by the writer")
	}
}

func TestKindMismatch(t *testing.T) {
	path, _, _, _ := writeTestFile(t)
	f, err := Open(path, ModeCopy)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Floats(1); err == nil {
		t.Fatal("Floats on an int section succeeded")
	}
	if _, err := f.Ints(3); err == nil {
		t.Fatal("Ints on a byte section succeeded")
	}
	if _, err := f.Ints(99); err == nil {
		t.Fatal("access to a missing section succeeded")
	}
}
