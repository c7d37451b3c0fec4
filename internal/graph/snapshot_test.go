package graph

import (
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// openedSnapshot writes g as a snapshot and opens it.
func openedSnapshot(t *testing.T, g *Graph) *Graph {
	t.Helper()
	path := filepath.Join(t.TempDir(), "graph.idx")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.WriteSnapshot(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	opened, err := OpenSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { opened.Close() })
	return opened
}

// TestInRowsDerivedOnceOnOpenedSnapshot checks the lazy in-rows of an
// opened snapshot under concurrency (run it with -race): readers call
// InNeighbors and Degree while another goroutine applies deltas to the
// same snapshot. Every reader sees the in-rows a Builder derives, the
// snapshot holds no heap bytes until the first reader, and afterwards
// HeapBytes counts exactly the derived rows.
func TestInRowsDerivedOnceOnOpenedSnapshot(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const n = 300
	b := NewBuilder(n)
	for i := 0; i < 4*n; i++ {
		mustEdge(t, b, rng.Intn(n), rng.Intn(n), 0.5+rng.Float64())
	}
	built := b.Build()
	g := openedSnapshot(t, built)
	if h := g.HeapBytes(); h != 0 {
		t.Fatalf("opened snapshot holds %d heap bytes before any in-row read", h)
	}
	type in struct {
		from int
		w    uint64
	}
	row := func(g *Graph, u int) (out []in) {
		g.InNeighbors(u, func(v int, w float64) { out = append(out, in{v, math.Float64bits(w)}) })
		return out
	}
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for u := r; u < n; u += 4 {
				got, want := row(g, u), row(built, u)
				if len(got) != len(want) || g.Degree(u) != built.Degree(u) {
					errs <- "in-row length or degree differs"
					return
				}
				for i := range got {
					if got[i] != want[i] {
						errs <- "in-row entry differs"
						return
					}
				}
			}
		}(r)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			d := g.NewDelta()
			if err := d.AddEdge(rng.Intn(n), rng.Intn(n), 1); err != nil {
				errs <- err.Error()
				return
			}
			next, err := g.Apply(d)
			if err != nil {
				errs <- err.Error()
				return
			}
			if next.in.Load() != nil {
				errs <- "an Apply successor derived in-rows nobody read"
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
	if want := int64(8*(n+1) + 12*g.M()); g.HeapBytes() != want {
		t.Fatalf("HeapBytes = %d after the in-rows were derived, want %d", g.HeapBytes(), want)
	}
}
