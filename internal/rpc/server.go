package rpc

import (
	"errors"
	"net"
	"sync"
)

// Handler dispatches one decoded request. Returning ErrWrongEpoch maps
// to StatusWrongEpoch on the wire; any other error becomes StatusError
// with the error text as body. Handlers must be safe for concurrent
// calls: every connection gets its own serving goroutine.
type Handler interface {
	Handle(op uint8, body []byte) ([]byte, error)
}

// Serve accepts connections on ln and serves each with h until ln is
// closed. It returns the first Accept error (net.ErrClosed after a
// clean shutdown).
func Serve(ln net.Listener, h Handler) error {
	var wg sync.WaitGroup
	defer wg.Wait()
	for {
		nc, err := ln.Accept()
		if err != nil {
			return err
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			ServeConn(nc, h)
		}()
	}
}

// ServeConn serves framed requests on nc until the peer disconnects.
func ServeConn(nc net.Conn, h Handler) {
	defer nc.Close()
	var inBuf, outBuf []byte
	for {
		req, err := ReadFrame(nc, inBuf)
		if err != nil {
			return // peer gone or torn frame; the client redials
		}
		inBuf = req
		outBuf = beginFrame(outBuf)
		if len(req) < 1 {
			outBuf = append(outBuf, StatusError)
			outBuf = append(outBuf, "rpc: empty request"...)
		} else {
			resp, err := h.Handle(req[0], req[1:])
			switch {
			case err == nil:
				outBuf = append(outBuf, StatusOK)
				outBuf = append(outBuf, resp...)
			case errors.Is(err, ErrWrongEpoch):
				outBuf = append(outBuf, StatusWrongEpoch)
			default:
				outBuf = append(outBuf, StatusError)
				outBuf = append(outBuf, err.Error()...)
			}
		}
		if _, err := nc.Write(endFrame(outBuf)); err != nil {
			return
		}
	}
}
