//go:build linux

package mmapio

import (
	"fmt"
	"io"
	"os"
	"syscall"
)

// sealSupported gates Open's sealed copies; only the Linux build maps
// memory.
const sealSupported = true

// readSealed reads path into a private anonymous mapping and then seals
// it PROT_READ: Open's bytes, kept off the Go heap so the collector
// neither scans them nor counts them toward its pacing goal, and
// write-protected by the MMU. An empty file yields an empty File for the
// parser to reject.
func readSealed(path string) (*File, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	// Bounded so the int conversion cannot overflow on a corrupt stat.
	if fi.Size() < 0 || fi.Size() > 1<<46 {
		return nil, fmt.Errorf("unmappable size %d", fi.Size())
	}
	size := int(fi.Size())
	if size == 0 {
		return &File{}, nil
	}
	data, err := syscall.Mmap(-1, 0, size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_PRIVATE|syscall.MAP_ANON)
	if err != nil {
		return nil, fmt.Errorf("allocating %d bytes: %w", size, err)
	}
	mf := offHeap(data, syscall.Munmap)
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
