package debugsrv

import (
	"bytes"
	"io"
	"net/http"
	"strings"
	"testing"
)

// TestServe: an empty address serves nothing; a set one answers the
// profile index, a CPU profile, the heap after a collection and a
// goroutine dump, refuses a CPU profile past maxSeconds, and answers
// 404 off its paths.
func TestServe(t *testing.T) {
	if addr, err := Serve(""); addr != nil || err != nil {
		t.Fatalf(`Serve("") = %v, %v; want nothing served`, addr, err)
	}
	addr, err := Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	gzipMagic := []byte{0x1f, 0x8b}
	for _, c := range []struct {
		path string
		code int
		want func([]byte) bool
	}{
		{"/debug/pprof/", 200, func(b []byte) bool { return bytes.Contains(b, []byte("heap")) }},
		{"/debug/pprof/profile?seconds=1", 200, func(b []byte) bool { return bytes.HasPrefix(b, gzipMagic) }},
		{"/debug/pprof/heap?gc=1", 200, func(b []byte) bool { return bytes.HasPrefix(b, gzipMagic) }},
		{"/debug/pprof/goroutine?debug=1", 200, func(b []byte) bool { return bytes.Contains(b, []byte("goroutine profile")) }},
		{"/debug/pprof/profile?seconds=61", 400, func(b []byte) bool { return bytes.Contains(b, []byte("at most 60")) }},
		{"/debug/pprof/nope", 404, nil},
		{"/topk", 404, nil},
	} {
		resp, err := http.Get("http://" + addr.String() + c.path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != c.code || c.want != nil && !c.want(body) {
			t.Errorf("%s: status %d, body %.80q; want %d", c.path, resp.StatusCode, body, c.code)
		}
	}
	resp, err := http.Post("http://"+addr.String()+"/debug/pprof/heap", "text/plain", strings.NewReader("x"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 400 {
		t.Errorf("POST: status %d, want 400", resp.StatusCode)
	}
}
