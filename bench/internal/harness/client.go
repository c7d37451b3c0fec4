package harness

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"kdash/bench/internal/workload"
)

// Client is the benchmark's one caller: every request goes over a single
// keep-alive connection, one at a time.
type Client struct {
	base string
	hc   *http.Client
}

// NewClient returns a client for the server at base.
func NewClient(base string) *Client {
	return &Client{base: base, hc: &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		},
	}}
}

// Close drops the connection.
func (c *Client) Close() { c.hc.CloseIdleConnections() }

// Result is one ranked answer.
type Result struct {
	Node  int     `json:"node"`
	Score float64 `json:"score"`
}

// TraceStep is one shard solve of the server's ?trace=1 block.
type TraceStep struct {
	Shard      int   `json:"shard"`
	DurationNs int64 `json:"durationNs"`
}

// Trace is the part of the ?trace=1 block the per-layer metrics read.
type Trace struct {
	Steps          []TraceStep `json:"steps"`
	Solves         int         `json:"solves"`
	ShardsPruned   int         `json:"shardsPruned"`
	NodesEvaluated int         `json:"nodesEvaluated"`
	CacheHit       bool        `json:"cacheHit"`
	SolveNs        int64       `json:"solveNs"`
	RankNs         int64       `json:"rankNs"`
}

// TopKResponse is the body of GET /topk.
type TopKResponse struct {
	Results []Result `json:"results"`
	Trace   *Trace   `json:"trace"`
}

// get times one GET from send to the last body byte.
func (c *Client) get(path string) ([]byte, time.Duration, error) {
	t0 := time.Now()
	resp, err := c.hc.Get(c.base + path)
	if err != nil {
		return nil, 0, err
	}
	body, err := io.ReadAll(resp.Body)
	d := time.Since(t0)
	resp.Body.Close()
	if err != nil {
		return nil, 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, 0, fmt.Errorf("GET %s: status %d: %.200s", path, resp.StatusCode, body)
	}
	return body, d, nil
}

// TopK issues one query and checks the answer's structure: k results
// with non-increasing scores. The latency excludes decoding.
func (c *Client) TopK(q, k int, trace bool) (*TopKResponse, time.Duration, error) {
	path := "/topk?q=" + strconv.Itoa(q) + "&k=" + strconv.Itoa(k)
	if trace {
		path += "&trace=1"
	}
	body, d, err := c.get(path)
	if err != nil {
		return nil, 0, err
	}
	var r TopKResponse
	if err := json.Unmarshal(body, &r); err != nil {
		return nil, 0, fmt.Errorf("GET %s: malformed body: %w", path, err)
	}
	if len(r.Results) != k {
		return nil, 0, fmt.Errorf("GET %s: %d results, want %d", path, len(r.Results), k)
	}
	for i := 1; i < len(r.Results); i++ {
		if r.Results[i].Score > r.Results[i-1].Score {
			return nil, 0, fmt.Errorf("GET %s: scores increase at rank %d", path, i+1)
		}
	}
	return &r, d, nil
}

// Healthz times one GET /healthz.
func (c *Client) Healthz() (time.Duration, error) {
	_, d, err := c.get("/healthz")
	return d, err
}

// Statz fetches the server's /statz document.
func (c *Client) Statz() (map[string]any, error) {
	body, _, err := c.get("/statz")
	if err != nil {
		return nil, err
	}
	var doc map[string]any
	if err := json.Unmarshal(body, &doc); err != nil {
		return nil, fmt.Errorf("GET /statz: malformed body: %w", err)
	}
	return doc, nil
}

type edgeJSON struct {
	From   int     `json:"from"`
	To     int     `json:"to"`
	Weight float64 `json:"weight,omitempty"`
}

// Update posts one batch that adds or removes the given edges and
// returns the time to the acknowledgement.
func (c *Client) Update(edges []workload.Edge, remove bool) (time.Duration, error) {
	ops := make([]edgeJSON, len(edges))
	for i, e := range edges {
		ops[i] = edgeJSON{From: e.From, To: e.To}
		if !remove {
			ops[i].Weight = 1
		}
	}
	key := "addEdges"
	if remove {
		key = "removeEdges"
	}
	payload, err := json.Marshal(map[string][]edgeJSON{key: ops})
	if err != nil {
		return 0, err
	}
	t0 := time.Now()
	resp, err := c.hc.Post(c.base+"/update", "application/json", bytes.NewReader(payload))
	if err != nil {
		return 0, err
	}
	body, err := io.ReadAll(resp.Body)
	d := time.Since(t0)
	resp.Body.Close()
	if err != nil {
		return 0, err
	}
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		return 0, fmt.Errorf("POST /update: status %d: %.200s", resp.StatusCode, body)
	}
	return d, nil
}

// At walks a path of keys in a decoded JSON document; nil when a key is
// missing.
func At(doc map[string]any, path ...string) any {
	var cur any = doc
	for _, k := range path {
		m, ok := cur.(map[string]any)
		if !ok {
			return nil
		}
		cur = m[k]
	}
	return cur
}

// Num reads a number at a path of keys; a missing key reads as 0, which
// is what an absent /statz block means.
func Num(doc map[string]any, path ...string) float64 {
	f, _ := At(doc, path...).(float64)
	return f
}
