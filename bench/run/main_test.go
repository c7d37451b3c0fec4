package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"kdash/bench/internal/harness"
)

// benchmarkJSON is the part of BENCHMARK.json the runner must agree with.
type benchmarkJSON struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
}

func TestBenchmarkJSONNamesWhatTheRunnerPrints(t *testing.T) {
	root, err := harness.Root()
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc benchmarkJSON
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(harness.Specs) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the runner has %d", len(doc.Workloads), len(harness.Specs))
	}
	for i, w := range doc.Workloads {
		if w.Name != harness.Specs[i].Name {
			t.Errorf("workload %d: BENCHMARK.json says %q, the runner %q", i, w.Name, harness.Specs[i].Name)
		}
	}
	if len(doc.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the runner prints %d", len(doc.EndToEnd), len(endToEnd))
	}
	for i, m := range doc.EndToEnd {
		want := endToEnd[i]
		if m.Name != want.name || m.Unit != want.unit || (m.Better == "higher") != want.higher {
			t.Errorf("end-to-end metric %d: BENCHMARK.json says %+v, the runner %+v", i, m, want)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
}

// TestSmoke runs all four workloads end to end at smoke size against the
// real binaries: set-up, measured passes, oracle and durability check.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and starts the real binaries")
	}
	var out bytes.Buffer
	if code := run([]string{"-all", "-smoke", "-seed", "3"}, &out); code != 0 {
		t.Fatalf("run exited %d\n%s", code, out.String())
	}
	results := 0
	for _, line := range strings.Split(out.String(), "\n") {
		if !strings.HasPrefix(line, "{") {
			continue
		}
		results++
		var r struct {
			Correct   bool
			Attempted int
			Failed    int
			Metrics   map[string]Metric
		}
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			t.Fatalf("result line %q: %v", line, err)
		}
		if !r.Correct || r.Failed != 0 || r.Attempted < 400 {
			t.Errorf("result %d: correct=%v attempted=%d failed=%d", results, r.Correct, r.Attempted, r.Failed)
		}
		for _, m := range endToEnd {
			if got := r.Metrics[m.name]; got.Value <= 0 || got.Unit != m.unit {
				t.Errorf("result %d: %s = %+v", results, m.name, got)
			}
		}
	}
	if results != len(harness.Specs) {
		t.Errorf("%d result lines, want %d", results, len(harness.Specs))
	}
}
