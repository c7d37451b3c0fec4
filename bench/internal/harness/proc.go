package harness

import (
	"bufio"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"kdash/bench/internal/workload"
)

// Inputs are the files one set-up generates: the edge list and the index
// the kdash CLI builds from it.
type Inputs struct {
	Edges    []workload.Edge
	GraphTSV string
	IndexDir string
	// BuildSeconds is the wall time of the kdash CLI run alone.
	BuildSeconds float64
}

// Prepare generates the graph from the seed, writes it under dir and
// builds and saves the 8-shard index with the kdash CLI.
func Prepare(binDir, dir string, spec workload.GraphSpec, seed int64) (*Inputs, error) {
	in := &Inputs{
		Edges:    workload.GenGraph(spec, seed),
		GraphTSV: filepath.Join(dir, "g.tsv"),
		IndexDir: filepath.Join(dir, "index"),
	}
	f, err := os.Create(in.GraphTSV)
	if err != nil {
		return nil, err
	}
	if err := workload.WriteTSV(f, in.Edges); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Close(); err != nil {
		return nil, err
	}
	t0 := time.Now()
	out, err := exec.Command(filepath.Join(binDir, "kdash"),
		"-graph", in.GraphTSV, "-shards", fmt.Sprint(Shards), "-save-index", in.IndexDir).CombinedOutput()
	if err != nil {
		return nil, fmt.Errorf("harness: kdash build: %w\n%s", err, out)
	}
	in.BuildSeconds = time.Since(t0).Seconds()
	return in, nil
}

// Proc is one started process. Its standard error, and its standard
// output unless the caller asked for a pipe, go to a log file.
type Proc struct {
	cmd  *exec.Cmd
	log  *os.File
	done chan struct{} // closed once the process has been waited for
}

func startProc(logPath string, pipeStdout bool, bin string, args ...string) (*Proc, *bufio.Reader, error) {
	log, err := os.Create(logPath)
	if err != nil {
		return nil, nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = log, log
	// Should the harness itself be killed, its children go with it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	var stdout *bufio.Reader
	if pipeStdout {
		cmd.Stdout = nil
		pipe, err := cmd.StdoutPipe()
		if err != nil {
			log.Close()
			return nil, nil, err
		}
		stdout = bufio.NewReader(pipe)
	}
	if err := cmd.Start(); err != nil {
		log.Close()
		return nil, nil, err
	}
	p := &Proc{cmd: cmd, log: log, done: make(chan struct{})}
	go func() {
		_ = cmd.Wait() // the exit status of a signalled process is not news
		close(p.done)
	}()
	return p, stdout, nil
}

// end signals the process and returns once it has exited, escalating to
// SIGKILL after 10 s.
func (p *Proc) end(sig syscall.Signal) {
	_ = p.cmd.Process.Signal(sig) // "already finished" is fine
	select {
	case <-p.done:
	case <-time.After(10 * time.Second):
		_ = p.cmd.Process.Kill()
		<-p.done
	}
	p.log.Close()
}

// Instance is the running server side of one workload: the HTTP server
// last, any workers before it.
type Instance struct {
	URL   string
	Procs []*Proc
	// ReadySeconds is exec of the first process until /healthz is 200.
	ReadySeconds float64
}

// Start launches the server-side processes of a workload over a prepared
// index and returns once /healthz answers 200. walDir is used only by
// WAL workloads; logs go under logDir.
func Start(binDir string, in *Inputs, spec Spec, walDir, logDir string) (*Instance, error) {
	inst := &Instance{}
	t0 := time.Now()
	var workers []string
	for w := 0; w < spec.Workers; w++ {
		p, addr, err := StartWorker(binDir, in.IndexDir, filepath.Join(logDir, fmt.Sprintf("worker%d.log", w)))
		if err != nil {
			inst.Stop()
			return nil, err
		}
		inst.Procs = append(inst.Procs, p)
		workers = append(workers, addr)
	}
	addr, err := freeAddr()
	if err != nil {
		inst.Stop()
		return nil, err
	}
	args := []string{"-load-index", in.IndexDir, "-addr", addr}
	if spec.Cache > 0 {
		args = append(args, "-cache", fmt.Sprint(spec.Cache))
	}
	if spec.WAL {
		args = append(args, "-wal-dir", walDir)
	}
	if len(workers) > 0 {
		args = append(args, "-coordinator", strings.Join(workers, ","))
	}
	p, _, err := startProc(filepath.Join(logDir, "server.log"), false, filepath.Join(binDir, "kdash-server"), args...)
	if err != nil {
		inst.Stop()
		return nil, err
	}
	inst.Procs = append(inst.Procs, p)
	inst.URL = "http://" + addr
	if err := waitHealthy(inst.URL, p); err != nil {
		inst.Stop()
		return nil, err
	}
	inst.ReadySeconds = time.Since(t0).Seconds()
	return inst, nil
}

// StartWorker launches one kdash-worker over the index on an ephemeral
// port and returns it with the address from its LISTEN line.
func StartWorker(binDir, indexDir, logPath string) (*Proc, string, error) {
	p, stdout, err := startProc(logPath, true, filepath.Join(binDir, "kdash-worker"), "-index", indexDir)
	if err != nil {
		return nil, "", err
	}
	line, err := stdout.ReadString('\n')
	addr, ok := strings.CutPrefix(strings.TrimSpace(line), "LISTEN ")
	if err != nil || !ok {
		p.end(syscall.SIGKILL)
		return nil, "", fmt.Errorf("harness: worker printed %q, want a LISTEN line (%v)", line, err)
	}
	return p, addr, nil
}

// Stop ends the process with SIGTERM and waits for it.
func (p *Proc) Stop() { p.end(syscall.SIGTERM) }

// Stop ends every process with SIGTERM (the server first, so it drains
// before its workers go) and waits for each.
func (in *Instance) Stop() { in.endAll(syscall.SIGTERM) }

// Kill ends every process with SIGKILL and waits for each: the crash the
// durability check recovers from.
func (in *Instance) Kill() { in.endAll(syscall.SIGKILL) }

func (in *Instance) endAll(sig syscall.Signal) {
	for i := len(in.Procs) - 1; i >= 0; i-- {
		in.Procs[i].end(sig)
	}
	in.Procs = nil
}

// CPUSeconds sums the CPU time of the server-side processes.
func (in *Instance) CPUSeconds() (float64, error) { return in.sum(workload.CPUSeconds) }

// PeakRSSMB sums VmHWM over the server-side processes.
func (in *Instance) PeakRSSMB() (float64, error) { return in.sum(workload.PeakRSSMB) }

func (in *Instance) sum(read func(pid int) (float64, error)) (float64, error) {
	total := 0.0
	for _, p := range in.Procs {
		v, err := read(p.cmd.Process.Pid)
		if err != nil {
			return 0, err
		}
		total += v
	}
	return total, nil
}

// freeAddr asks the kernel for an unused loopback port. The port is
// released before the server binds it; nothing else in the checkout
// competes for it in between.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// waitHealthy polls /healthz until it answers 200, the server exits, or
// 60 s pass.
func waitHealthy(url string, server *Proc) error {
	hc := &http.Client{Timeout: time.Second, Transport: &http.Transport{DisableKeepAlives: true}}
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := hc.Get(url + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-server.done:
			return fmt.Errorf("harness: server exited before /healthz answered (see %s)", server.log.Name())
		default:
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("harness: /healthz at %s never answered 200 (see %s)", url, server.log.Name())
}
