//go:build unix

package server

import (
	"net"
	"syscall"
)

// peeker looks at a socket connection's receive queue for the
// disconnect check. Each peek runs inside RawConn.Control, which holds
// the descriptor open for the call, so a peek never reaches a
// descriptor that was closed or handed to another connection.
type peeker struct {
	rc  syscall.RawConn
	fn  func(fd uintptr) // Control's callback, made once so a peek allocates nothing
	res peekResult
}

// newPeeker returns the peeker of a socket connection, or nil when c
// has no descriptor.
func newPeeker(c net.Conn) *peeker {
	sc, ok := c.(syscall.Conn)
	if !ok {
		return nil
	}
	rc, err := sc.SyscallConn()
	if err != nil {
		return nil
	}
	p := &peeker{rc: rc}
	p.fn = func(fd uintptr) { p.res = peekFD(int(fd)) }
	return p
}

// peek reports what waits on the socket, without taking it or
// blocking. Its caller serialises the peeks of one connection.
func (p *peeker) peek() peekResult {
	if p.rc.Control(p.fn) != nil {
		return peerGone // the connection is closed
	}
	return p.res
}

// peekFD peeks one byte (Go keeps its sockets non-blocking): an orderly
// close or a reset means the peer has gone.
func peekFD(fd int) peekResult {
	var b [1]byte
	n, _, err := syscall.Recvfrom(fd, b[:], syscall.MSG_PEEK)
	switch {
	case err == syscall.EAGAIN || err == syscall.EWOULDBLOCK || err == syscall.EINTR:
		return peerQuiet
	case err != nil || n == 0:
		return peerGone
	}
	return peerSentMore
}
