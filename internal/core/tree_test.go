package core

import (
	"math"
	"slices"
	"testing"

	"kdash/internal/gen"
	"kdash/internal/topk"
)

// TestTreeWSGenerationWrap forces the int32 visit generation to wrap
// with every mark holding a stale generation the wrapped counter would
// reuse: the search must clear the marks and visit exactly what a fresh
// workspace visits, in the same order and with the same answers.
func TestTreeWSGenerationWrap(t *testing.T) {
	g := gen.ErdosRenyi(300, 1500, 3)
	b := GraphBounds(g, 0.95)
	ptr, to := g.OutCSR()
	run := func(ws *TreeWS) ([]topk.Result, SearchStats, []int) {
		var order []int
		score := func(u int) float64 {
			order = append(order, u)
			return 1 / float64(u+1)
		}
		heap := topk.New(10)
		var st SearchStats
		ws.Start([]int{5})
		ws.Search(&b, ptr, to, score, heap, nil, false, &st)
		return heap.Results(), st, order
	}
	wantRes, wantStats, wantOrder := run(NewTreeWS(g.N()))

	ws := NewTreeWS(g.N())
	ws.gen = math.MaxInt32
	for i := range ws.mark {
		ws.mark[i] = 1 // stale: the first generation after the wrap
	}
	res, stats, order := run(ws)
	if !slices.Equal(res, wantRes) || stats != wantStats || !slices.Equal(order, wantOrder) {
		t.Fatalf("after the wrap: %d visits, results %v; fresh: %d visits, results %v", stats.Visited, res, wantStats.Visited, wantRes)
	}
	if ws.gen != 1 {
		t.Fatalf("generation after the wrap = %d, want 1", ws.gen)
	}
	// The next search reuses the cleared marks by generation alone.
	if res, stats, _ := run(ws); !slices.Equal(res, wantRes) || stats != wantStats {
		t.Fatalf("second search after the wrap differs: %d visits", stats.Visited)
	}
}
