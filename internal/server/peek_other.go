//go:build !unix

package server

import "net"

// peeker is never made here: no connection can be peeked, and each
// request watches its socket with a background read, as net/http does.
type peeker struct{}

func newPeeker(net.Conn) *peeker { return nil }

func (*peeker) peek() peekResult { return peerQuiet }
