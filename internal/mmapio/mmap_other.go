//go:build !linux

package mmapio

import "fmt"

// mmapSupported gates ModeMmap and the sealed copies of ModeCopy;
// non-Linux builds always read into the Go heap, so the format stays
// fully portable (ModeAuto silently selects ModeCopy).
const mmapSupported = false

// openMmap is unreachable behind the mmapSupported gate but keeps the
// package compiling on every platform.
func openMmap(path string) (*File, error) {
	return nil, fmt.Errorf("mmapio: mmap unsupported on this platform")
}

// readSealed is unreachable behind the mmapSupported gate, like openMmap.
func readSealed(path string) (*File, error) {
	return nil, fmt.Errorf("mmapio: sealed copies unsupported on this platform")
}
