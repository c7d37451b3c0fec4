package rpc

import (
	"bufio"
	"errors"
	"net"
	"sync"
)

// Handler dispatches one decoded request, appending its reply body to
// resp — the connection's response frame, so a reply is encoded once,
// in place — and returning the extended slice. Returning ErrWrongEpoch
// maps to StatusWrongEpoch on the wire; any other error becomes
// StatusError with the error text as body (whatever the handler
// appended is dropped). Handlers must be safe for concurrent calls:
// every connection gets its own serving goroutine.
type Handler interface {
	Handle(op uint8, body, resp []byte) ([]byte, error)
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

// ServeConn serves framed requests on nc, read through a buffered
// reader, until the peer disconnects.
func ServeConn(nc net.Conn, h Handler) {
	defer nc.Close()
	r := bufio.NewReaderSize(nc, readBufSize)
	var inBuf, outBuf []byte
	for {
		req, err := ReadFrame(r, inBuf)
		if err != nil {
			return // peer gone or torn frame; the client redials
		}
		inBuf = req
		outBuf = append(beginFrame(outBuf), StatusOK)
		if len(req) < 1 {
			outBuf = append(outBuf[:4], StatusError)
			outBuf = append(outBuf, "rpc: empty request"...)
		} else {
			resp, err := h.Handle(req[0], req[1:], outBuf)
			switch {
			case err == nil:
				outBuf = resp
			case errors.Is(err, ErrWrongEpoch):
				outBuf = append(outBuf[:4], StatusWrongEpoch)
			default:
				outBuf = append(outBuf[:4], StatusError)
				outBuf = append(outBuf, err.Error()...)
			}
		}
		if _, err := nc.Write(endFrame(outBuf)); err != nil {
			return
		}
	}
}
