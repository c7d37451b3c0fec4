package server

import (
	"net"
	"net/http"
	"testing"

	"kdash/internal/gen"
	"kdash/internal/placement"
	"kdash/internal/reorder"
	"kdash/internal/rpc"
	"kdash/internal/shard"
)

// lyingWorker serves a real worker but rewrites every OpRunRows reply
// with lie before sending it.
type lyingWorker struct {
	wk  *placement.Worker
	lie func(rep *rpc.RunRowsReply)
}

func (l *lyingWorker) Handle(op uint8, body, out []byte) ([]byte, error) {
	n := len(out)
	resp, err := l.wk.Handle(op, body, out)
	if op != rpc.OpRunRows || err != nil {
		return resp, err
	}
	var rep rpc.RunRowsReply
	if err := rpc.DecodeRunRowsReply(resp[n:], &rep); err != nil {
		return nil, err
	}
	l.lie(&rep)
	return rpc.AppendRunRowsReply(resp[:n], &rep), nil
}

// TestLyingWorkerIs503: a worker whose run reply breaks its contract —
// a step naming another shard than the push chose, a step short of its
// shard's rows, or a step past the push's end — costs the query a 503,
// never a 200 with an answer built from the reply.
func TestLyingWorkerIs503(t *testing.T) {
	g := gen.PlantedPartition(120, 4, 0.2, 0.01, 1)
	sx, err := shard.Build(g, shard.Options{Shards: 4, Reorder: reorder.Hybrid, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := sx.Save(dir); err != nil {
		t.Fatal(err)
	}
	for name, lie := range map[string]func(*rpc.RunRowsReply){
		"other shard": func(rep *rpc.RunRowsReply) { rep.Steps[0] = (rep.Steps[0] + 1) % sx.Shards() },
		"short step": func(rep *rpc.RunRowsReply) {
			rep.Vals = rep.Vals[:len(rep.Vals)-1]
			rep.Ptr[len(rep.Ptr)-1]--
		},
		"extra step": func(rep *rpc.RunRowsReply) {
			s := len(rep.Steps) - 1
			rep.Steps = append(rep.Steps, rep.Steps[s])
			rep.Vals = append(rep.Vals, rep.Vals[rep.Ptr[s]:rep.Ptr[s+1]]...)
			rep.Ptr = append(rep.Ptr, len(rep.Vals))
		},
	} {
		t.Run(name, func(t *testing.T) {
			wsx, err := shard.Open(dir, shard.LoadOptions{Lazy: true})
			if err != nil {
				t.Fatal(err)
			}
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer ln.Close()
			go rpc.Serve(ln, &lyingWorker{wk: placement.NewWorker(wsx), lie: lie}) //nolint:errcheck // closes with the listener
			co, err := placement.NewCoordinator(dir, []string{ln.Addr().String()}, placement.Config{})
			if err != nil {
				t.Fatal(err)
			}
			defer co.Close()
			h := New(co)
			for _, url := range []string{"/topk?q=7&k=5", "/topk?q=99&k=10", "/proximity?q=7&u=11"} {
				if rec, _ := get(t, h, url); rec.Code != http.StatusServiceUnavailable {
					t.Errorf("%s: status %d, want 503 (%s)", url, rec.Code, rec.Body.String())
				}
			}
			if rec := post(t, h, "/personalized", `{"seeds":{"3":1,"60":2},"k":4}`); rec.Code != http.StatusServiceUnavailable {
				t.Errorf("/personalized: status %d, want 503 (%s)", rec.Code, rec.Body.String())
			}
		})
	}
}
