//go:build !linux

package mmapio

import "fmt"

// sealSupported gates Open's sealed copies; non-Linux builds always read
// into the Go heap, so the format stays fully portable.
const sealSupported = false

// readSealed is unreachable behind the sealSupported gate but keeps the
// package compiling on every platform.
func readSealed(path string) (*File, error) {
	return nil, fmt.Errorf("mmapio: sealed copies unsupported on this platform")
}
