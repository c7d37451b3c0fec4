//go:build linux

package mmapio

import (
	"fmt"
	"io"
	"os"
	"syscall"
)

// mmapSupported gates ModeMmap and the sealed copies of ModeCopy; only
// the Linux build maps memory.
const mmapSupported = true

// openSized opens path for reading and returns its size, bounded so
// the int conversions below cannot overflow on a corrupt stat.
func openSized(path string) (*os.File, int, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, err
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, 0, err
	}
	if size := fi.Size(); size < 0 || size > 1<<46 {
		f.Close()
		return nil, 0, fmt.Errorf("unmappable size %d", size)
	}
	return f, int(fi.Size()), nil
}

// openMmap maps path read-only. PROT_READ makes every write through a
// section slice fault, which is the enforcement mechanism behind the
// package's mutation discipline.
func openMmap(path string) (*File, error) {
	f, size, err := openSized(path)
	if err != nil {
		return nil, fmt.Errorf("mmapio: mapping %s: %w", path, err)
	}
	defer f.Close() // the mapping outlives the descriptor
	if size == 0 {
		return nil, fmt.Errorf("mmapio: mapping %s: unmappable size 0", path)
	}
	data, err := syscall.Mmap(int(f.Fd()), 0, size, syscall.PROT_READ, syscall.MAP_SHARED)
	if err != nil {
		return nil, fmt.Errorf("mmapio: mapping %s: %w", path, err)
	}
	mf := offHeap(data, true, syscall.Munmap)
	// Only the header and table are validated: data pages stay
	// untouched until a query faults them in.
	if err := mf.parse(); err != nil {
		mf.Close()
		return nil, fmt.Errorf("mmapio: %s: %w", path, err)
	}
	return mf, nil
}

// readSealed reads path into a private anonymous mapping and then seals
// it PROT_READ: ModeCopy's bytes, kept off the Go heap so the collector
// neither scans them nor counts them toward its pacing goal, and
// write-protected by the MMU like a file mapping. An empty file yields
// an empty File for the parser to reject.
func readSealed(path string) (*File, error) {
	f, size, err := openSized(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if size == 0 {
		return &File{}, nil
	}
	data, err := syscall.Mmap(-1, 0, size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_PRIVATE|syscall.MAP_ANON)
	if err != nil {
		return nil, fmt.Errorf("allocating %d bytes: %w", size, err)
	}
	mf := offHeap(data, false, syscall.Munmap)
	if _, err := io.ReadFull(f, data); err != nil {
		mf.Close()
		return nil, err
	}
	if err := syscall.Mprotect(data, syscall.PROT_READ); err != nil {
		mf.Close()
		return nil, fmt.Errorf("sealing: %w", err)
	}
	return mf, nil
}
