// Package debugsrv serves the Go runtime's profiles at net/http/pprof's
// paths on a listener of its own, for the -debug-addr flag of
// kdash-server and kdash-worker: a CPU or heap profile of a running
// process, with no rebuild and nothing added to the serving address.
//
//	curl -o cpu.pprof  'http://127.0.0.1:6060/debug/pprof/profile?seconds=10'
//	curl -o heap.pprof 'http://127.0.0.1:6060/debug/pprof/heap?gc=1'
//
// It answers each request itself, one per connection, over
// runtime/pprof: net/http/pprof would link net/http into kdash-worker,
// which serves no HTTP, and that costs every idle worker about 2.6 MB
// of resident memory whether or not the flag is set (VmHWM 5.6–5.8 MB
// against 8.2–8.4 MB, six starts each on a four-shard index). A CPU
// profile runs at most maxSeconds, so no request holds the profiler
// for long.
package debugsrv

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"net/url"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"
)

// Serve listens on addr and serves /debug/pprof/ there until the
// process exits, returning the address it bound. An empty addr serves
// nothing and returns nil.
func Serve(addr string) (net.Addr, error) {
	if addr == "" {
		return nil, nil
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go serveConn(c)
		}
	}()
	return ln.Addr(), nil
}

const (
	prefix = "/debug/pprof/"
	// maxSeconds bounds a CPU profile's duration.
	maxSeconds = 60
	textPlain  = "text/plain; charset=utf-8"
)

// serveConn answers one GET and closes the connection.
func serveConn(c net.Conn) {
	defer c.Close()
	c.SetReadDeadline(time.Now().Add(10 * time.Second))
	br := bufio.NewReader(c)
	line, err := br.ReadString('\n')
	if err != nil {
		return
	}
	for { // the headers carry nothing a profile needs
		h, err := br.ReadString('\n')
		if err != nil {
			return
		}
		if strings.TrimRight(h, "\r\n") == "" {
			break
		}
	}
	fields := strings.Fields(line)
	if len(fields) != 3 || fields[0] != "GET" {
		reply(c, "400 Bad Request", textPlain, []byte("want GET "+prefix+"<profile>\n"))
		return
	}
	path, rawQuery, _ := strings.Cut(fields[1], "?")
	query, _ := url.ParseQuery(rawQuery)
	var body bytes.Buffer
	switch name, _ := strings.CutPrefix(path, prefix); {
	case !strings.HasPrefix(path, prefix):
		reply(c, "404 Not Found", textPlain, []byte("404 page not found\n"))
	case name == "":
		body.WriteString("profiles: profile?seconds=N (CPU)")
		for _, p := range pprof.Profiles() {
			fmt.Fprintf(&body, ", %s", p.Name())
		}
		body.WriteString("\n?debug=1 for text; heap?gc=1 collects first\n")
		reply(c, "200 OK", textPlain, body.Bytes())
	case name == "profile":
		seconds, err := strconv.Atoi(query.Get("seconds"))
		if err != nil || seconds <= 0 {
			seconds = 30
		}
		if seconds > maxSeconds {
			reply(c, "400 Bad Request", textPlain, fmt.Appendf(nil, "seconds is at most %d\n", maxSeconds))
			return
		}
		if err := pprof.StartCPUProfile(&body); err != nil {
			reply(c, "500 Internal Server Error", textPlain, []byte(err.Error()+"\n"))
			return
		}
		time.Sleep(time.Duration(seconds) * time.Second)
		pprof.StopCPUProfile()
		reply(c, "200 OK", "application/octet-stream", body.Bytes())
	default:
		p := pprof.Lookup(name)
		if p == nil {
			reply(c, "404 Not Found", textPlain, []byte("unknown profile\n"))
			return
		}
		if name == "heap" && query.Get("gc") != "" {
			runtime.GC()
		}
		debug, _ := strconv.Atoi(query.Get("debug"))
		ctype := "application/octet-stream"
		if debug > 0 {
			ctype = textPlain
		}
		if err := p.WriteTo(&body, debug); err != nil {
			reply(c, "500 Internal Server Error", textPlain, []byte(err.Error()+"\n"))
			return
		}
		reply(c, "200 OK", ctype, body.Bytes())
	}
}

// reply writes one answer; status is the status line's, such as
// "200 OK".
func reply(c net.Conn, status, ctype string, body []byte) {
	c.SetWriteDeadline(time.Now().Add(10 * time.Second))
	fmt.Fprintf(c, "HTTP/1.1 %s\r\nContent-Type: %s\r\nContent-Length: %d\r\nConnection: close\r\n\r\n", status, ctype, len(body))
	c.Write(body)
}
