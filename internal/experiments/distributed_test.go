package experiments

import (
	"strings"
	"testing"
)

// TestDistributedShape runs the distributed-serving experiment on a
// small graph and checks its structural invariants: one single-process
// baseline row plus the 2- and 4-worker topologies, every topology
// bit-identical, and sane latency fields.
func TestDistributedShape(t *testing.T) {
	rows, err := Distributed(Config{Queries: 4, Seed: 2, ShardGraphN: 1500})
	if err != nil {
		t.Fatal(err)
	}
	wantWorkers := []int{0, 2, 4}
	if len(rows) != len(wantWorkers) {
		t.Fatalf("got %d rows, want %d", len(rows), len(wantWorkers))
	}
	for i, r := range rows {
		if r.Workers != wantWorkers[i] {
			t.Fatalf("row %d workers %d, want %d", i, r.Workers, wantWorkers[i])
		}
		if !r.Exact {
			t.Fatalf("topology with %d workers answered differently from the single process", r.Workers)
		}
		if r.Mean <= 0 || r.P99 < r.P50 || r.QPS <= 0 {
			t.Fatalf("row %d has implausible latency fields: %+v", i, r)
		}
	}
	if rows[0].SlowdownVs != 1 {
		t.Fatalf("baseline slowdown = %v, want 1", rows[0].SlowdownVs)
	}

	var sb strings.Builder
	WriteDistributedRows(&sb, rows)
	if !strings.Contains(sb.String(), "2-worker") || !strings.Contains(sb.String(), "local") {
		t.Fatalf("table missing topology labels:\n%s", sb.String())
	}
}

// TestResolvedConfig: Resolved must replace every defaulted field so a
// -json run records the workload it actually measured.
func TestResolvedConfig(t *testing.T) {
	r := Config{}.Resolved()
	if r.Queries == 0 {
		t.Fatalf("Resolved left zero fields: %+v", r)
	}
	if r.ShardCounts == nil || r.ShardGraphN == 0 {
		t.Fatalf("Resolved left nil/zero sweep fields: %+v", r)
	}
	// An explicitly set field survives resolution.
	if got := (Config{ShardGraphN: 123}).Resolved().ShardGraphN; got != 123 {
		t.Fatalf("Resolved clobbered an explicit field: %d", got)
	}
}
