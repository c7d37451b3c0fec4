package shard

// The ablation knobs of the paper's Figures 7 and 9 through the one
// engine: DisablePruning and RandomRoot change which nodes the rank
// scores, at any shard count, and never a score.

import (
	"fmt"
	"testing"

	"kdash/internal/core"
	"kdash/internal/gen"
	"kdash/internal/graph"
	"kdash/internal/reorder"
	"kdash/internal/rwr"
)

// TestRandomRootOffersOnlyReachable: on three 2-cycles, a randomly
// rooted search from node 0 scores every node — K exceeds what node 0
// reaches, so the heap never fills and nothing is skipped — but answers
// only with what node 0 reaches, as the query-rooted search does: an
// unreachable node's proximity is zero, and zero is never an answer.
func TestRandomRootOffersOnlyReachable(t *testing.T) {
	b := graph.NewBuilder(6)
	for _, e := range [][2]int{{0, 1}, {1, 0}, {2, 3}, {3, 2}, {4, 5}, {5, 4}} {
		if err := b.AddEdge(e[0], e[1], 1); err != nil {
			t.Fatal(err)
		}
	}
	g := b.Build()
	for _, shards := range []int{1, 4} {
		sx := buildSharded(t, g, shards, rwr.DefaultRestart)
		want, pruned, err := sx.Search(0, core.SearchOptions{K: 5})
		if err != nil {
			t.Fatal(err)
		}
		if len(want) != 2 || want[0].Node != 0 || want[1].Node != 1 {
			t.Fatalf("shards=%d: query-rooted answer %v, want nodes [0 1]", shards, want)
		}
		for seed := int64(0); seed < 6; seed++ {
			got, random, err := sx.Search(0, core.SearchOptions{K: 5, RandomRoot: true, RootSeed: seed})
			if err != nil {
				t.Fatal(err)
			}
			if scored := random.ProximityComputations - pruned.ProximityComputations; scored != g.N()-2 {
				t.Errorf("shards=%d seed=%d: the random root scored %d nodes past the query's 2, want %d", shards, seed, scored, g.N()-2)
			}
			if !sameBits(got, want) {
				t.Errorf("shards=%d seed=%d: random-rooted answer %v, want %v", shards, seed, got, want)
			}
		}
	}
}

// TestSearchOptionsTakeEffect: at one and four shards, DisablePruning
// computes at least as many proximities as the pruned query and
// RandomRoot more, and both return the pruned query's answer, scores
// bit for bit.
func TestSearchOptionsTakeEffect(t *testing.T) {
	g := gen.PlantedPartition(200, 4, 0.15, 0.01, 8)
	for _, shards := range []int{1, 4} {
		sx := buildSharded(t, g, shards, rwr.DefaultRestart)
		unpruned := 0
		for _, q := range []int{3, 50, 101, 199} {
			label := fmt.Sprintf("shards=%d q=%d", shards, q)
			want, pruned, err := sx.Search(q, core.SearchOptions{K: 5})
			if err != nil {
				t.Fatal(err)
			}
			got, full, err := sx.Search(q, core.SearchOptions{K: 5, DisablePruning: true})
			if err != nil {
				t.Fatal(err)
			}
			if !sameBits(got, want) {
				t.Errorf("%s: unpruned answer %v, pruned %v", label, got, want)
			}
			if full.ProximityComputations < pruned.ProximityComputations {
				t.Errorf("%s: unpruned computed %d proximities, pruned %d", label, full.ProximityComputations, pruned.ProximityComputations)
			}
			if full.ProximityComputations > pruned.ProximityComputations {
				unpruned++
			}
			got, random, err := sx.Search(q, core.SearchOptions{K: 5, RandomRoot: true, RootSeed: int64(q)})
			if err != nil {
				t.Fatal(err)
			}
			if !sameBits(got, want) {
				t.Errorf("%s: random-rooted answer %v, pruned %v", label, got, want)
			}
			if random.ProximityComputations <= pruned.ProximityComputations {
				t.Errorf("%s: random root computed %d proximities, pruned %d", label, random.ProximityComputations, pruned.ProximityComputations)
			}
		}
		if unpruned == 0 {
			t.Errorf("shards=%d: DisablePruning never computed more than the pruned query", shards)
		}
	}
}

// TestRemoteSearchOptions: a coordinator honours DisablePruning with
// the in-process answer and refuses RandomRoot, whose tree does not
// start at the query its remote rows are fetched along.
func TestRemoteSearchOptions(t *testing.T) {
	g := gen.PlantedPartition(120, 4, 0.2, 0.02, 5)
	local, co, _ := remotePair(t, g, Options{Shards: 3, Reorder: reorder.Hybrid, Seed: 5})
	opt := core.SearchOptions{K: 6, DisablePruning: true}
	want, wst, err := local.Search(7, opt)
	if err != nil {
		t.Fatal(err)
	}
	got, gst, err := co.Search(7, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !sameBits(got, want) || gst != wst {
		t.Errorf("remote unpruned answer %v (%+v), in process %v (%+v)", got, gst, want, wst)
	}
	if _, _, err := co.Search(7, core.SearchOptions{K: 6, RandomRoot: true}); err == nil {
		t.Error("a coordinator answered a randomly rooted query")
	}
}
