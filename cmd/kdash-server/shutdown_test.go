package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"kdash/internal/gen"
	"kdash/internal/shard"
)

// TestMain runs the server's main when a test re-executes this binary
// with KDASH_SERVER_MAIN set, so a test can drive the real process:
// flags, signals, exit status.
func TestMain(m *testing.M) {
	if os.Getenv("KDASH_SERVER_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// freeAddrs returns n distinct loopback addresses nothing listens on.
func freeAddrs(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close() // held until all are picked, so no two are the same
		addrs[i] = ln.Addr().String()
	}
	return addrs
}

// serverProc is a kdash-server process started from this test binary;
// exited closes once it has exited, with its status in err.
type serverProc struct {
	cmd    *exec.Cmd
	stderr *logBuffer
	exited chan struct{}
	err    error
}

// logBuffer collects the process's standard error, which the test reads
// while exec's copying goroutine may still write it.
type logBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *logBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *logBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

func startServer(t *testing.T, args ...string) *serverProc {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "KDASH_SERVER_MAIN=1")
	p := &serverProc{cmd: cmd, stderr: &logBuffer{}, exited: make(chan struct{})}
	cmd.Stderr = p.stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	go func() {
		p.err = cmd.Wait()
		close(p.exited)
	}()
	t.Cleanup(func() {
		cmd.Process.Kill()
		<-p.exited
	})
	return p
}

// get fetches url and returns its status, or 0 when nothing answers.
func getStatus(url string) int {
	resp, err := (&http.Client{Timeout: 2 * time.Second}).Get(url)
	if err != nil {
		return 0
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode
}

func waitHealthy(t *testing.T, p *serverProc, addr string) {
	t.Helper()
	for deadline := time.Now().Add(30 * time.Second); getStatus("http://"+addr+"/healthz") != http.StatusOK; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("server never became healthy:\n%s", p.stderr)
		}
	}
}

// TestSIGTERMDrains drives a real kdash-server process: on SIGTERM an
// idle keep-alive connection is closed at once, an in-flight request
// (a POST whose body is still arriving) gets its answer, and the
// process exits cleanly; when a request never finishes, the process
// exits within -shutdown-timeout. -debug-addr serves the profiles on a
// listener of their own and -addr never does.
func TestSIGTERMDrains(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "idx")
	sx, err := shard.Build(gen.PlantedPartition(60, 3, 0.2, 0.02, 1), shard.Options{Shards: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := sx.Save(dir); err != nil {
		t.Fatal(err)
	}
	const body = `{"seeds":{"3":1},"k":3}`
	head := fmt.Sprintf("POST /personalized HTTP/1.1\r\nHost: kdash\r\nContent-Length: %d\r\n\r\n", len(body))

	t.Run("drain", func(t *testing.T) {
		addrs := freeAddrs(t, 2)
		addr, debug := addrs[0], addrs[1]
		p := startServer(t, "-load-index", dir, "-addr", addr, "-debug-addr", debug, "-shutdown-timeout", "5s")
		waitHealthy(t, p, addr)
		if code := getStatus("http://" + addr + "/debug/pprof/"); code != http.StatusNotFound {
			t.Errorf("/debug/pprof/ on -addr: status %d, want 404", code)
		}
		if code := getStatus("http://" + debug + "/debug/pprof/"); code != http.StatusOK {
			t.Errorf("/debug/pprof/ on -debug-addr: status %d, want 200", code)
		}

		idle, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer idle.Close()
		idleR := bufio.NewReader(idle)
		fmt.Fprint(idle, "GET /healthz HTTP/1.1\r\nHost: kdash\r\n\r\n")
		if resp, err := http.ReadResponse(idleR, nil); err != nil {
			t.Fatal(err)
		} else {
			io.Copy(io.Discard, resp.Body)
		}
		busy, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer busy.Close()
		fmt.Fprint(busy, head+body[:5])
		time.Sleep(100 * time.Millisecond) // let the handler start reading the body

		if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
			t.Fatal(err)
		}
		idle.SetReadDeadline(time.Now().Add(3 * time.Second))
		if _, err := idleR.ReadByte(); err != io.EOF {
			t.Fatalf("idle keep-alive connection after SIGTERM: read %v, want EOF", err)
		}
		select {
		case <-p.exited:
			t.Fatalf("exited (%v) with a request in flight:\n%s", p.err, p.stderr)
		case <-time.After(100 * time.Millisecond):
		}
		fmt.Fprint(busy, body[5:])
		busy.SetReadDeadline(time.Now().Add(5 * time.Second))
		resp, err := http.ReadResponse(bufio.NewReader(busy), nil)
		if err != nil {
			t.Fatalf("in-flight request: %v\n%s", err, p.stderr)
		}
		got, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK || !resp.Close || !strings.Contains(string(got), `"results"`) {
			t.Errorf("in-flight answer: %d, close %v, %q", resp.StatusCode, resp.Close, got)
		}
		select {
		case <-p.exited:
			if p.err != nil || !strings.Contains(p.stderr.String(), "shut down cleanly") {
				t.Errorf("exit %v:\n%s", p.err, p.stderr)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("still running 5 s after its last request:\n%s", p.stderr)
		}
	})

	t.Run("timeout", func(t *testing.T) {
		addr := freeAddrs(t, 1)[0]
		p := startServer(t, "-load-index", dir, "-addr", addr, "-shutdown-timeout", "1s")
		waitHealthy(t, p, addr)
		stuck, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer stuck.Close()
		fmt.Fprint(stuck, head+body[:5]) // the rest never comes
		time.Sleep(100 * time.Millisecond)
		t0 := time.Now()
		if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
			t.Fatal(err)
		}
		select {
		case <-p.exited:
			if d := time.Since(t0); d < time.Second || d > 3*time.Second {
				t.Errorf("exited %v after SIGTERM, want just past the 1 s -shutdown-timeout", d)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("still running 5 s after SIGTERM with -shutdown-timeout 1s:\n%s", p.stderr)
		}
		if strings.Contains(p.stderr.String(), "profiles on") {
			t.Errorf("profiles served without -debug-addr:\n%s", p.stderr)
		}
	})

	// A drain that times out in durable mode still runs the final
	// compaction and closes the log before the non-zero exit.
	t.Run("timeout with -wal-dir", func(t *testing.T) {
		addr := freeAddrs(t, 1)[0]
		p := startServer(t, "-load-index", dir, "-addr", addr, "-wal-dir", t.TempDir(), "-shutdown-timeout", "1s")
		waitHealthy(t, p, addr)
		resp, err := http.Post("http://"+addr+"/update", "application/json", strings.NewReader(`{"addEdges":[{"from":1,"to":2,"weight":1.5}]}`))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("/update: status %d, want 202", resp.StatusCode)
		}
		stuck, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer stuck.Close()
		fmt.Fprint(stuck, head+body[:5]) // the rest never comes
		time.Sleep(100 * time.Millisecond)
		if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
			t.Fatal(err)
		}
		select {
		case <-p.exited:
		case <-time.After(5 * time.Second):
			t.Fatalf("still running 5 s after SIGTERM with -shutdown-timeout 1s:\n%s", p.stderr)
		}
		out := p.stderr.String()
		if p.err == nil || !strings.Contains(out, "shutdown: context deadline exceeded") {
			t.Errorf("exit %v, want a failed drain's non-zero exit:\n%s", p.err, out)
		}
		if !strings.Contains(out, "drained the WAL memtable and closed the log") {
			t.Errorf("exited without closing the handler:\n%s", out)
		}
	})
}
