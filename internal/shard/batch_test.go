package shard

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"kdash/internal/gen"
	"kdash/internal/graph"
	"kdash/internal/rwr"
)

// rwrDefaultC mirrors rwr.DefaultRestart for the batch test tables.
const rwrDefaultC = rwr.DefaultRestart

// TestTopKBatchMatchesSingleSharded is the sharded half of the batch
// exactness property: a batch is a loop over the single-query push, so
// every item — results and QueryStats alike — equals TopK exactly,
// across graph shapes, shard counts and the acceptance batch sizes.
func TestTopKBatchMatchesSingleSharded(t *testing.T) {
	for name, g := range testGraphs(23) {
		for _, shards := range []int{1, 3, 6} {
			sx := buildSharded(t, g, shards, rwrDefaultC)
			rng := rand.New(rand.NewSource(int64(shards)))
			for _, nb := range []int{1, 7, 64} {
				qs := make([]int, nb)
				for i := range qs {
					qs[i] = rng.Intn(g.N())
				}
				got, bs, err := sx.TopKBatch(qs, 5)
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != nb || len(bs.PerQuery) != nb {
					t.Fatalf("%s/%d: %d results, %d stats for %d queries", name, shards, len(got), len(bs.PerQuery), nb)
				}
				for i, q := range qs {
					want, wantStats, err := sx.TopK(q, 5)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got[i], want) {
						t.Errorf("%s/shards=%d nb=%d query %d (node %d): batch %v vs single %v",
							name, shards, nb, i, q, got[i], want)
					}
					if bs.PerQuery[i] != wantStats {
						t.Errorf("%s/shards=%d nb=%d query %d (node %d): batch stats %+v vs single %+v",
							name, shards, nb, i, q, bs.PerQuery[i], wantStats)
					}
				}
			}
		}
	}
}

func TestTopKBatchValidation(t *testing.T) {
	g := gen.PlantedPartition(60, 3, 0.3, 0.05, 1)
	sx := buildSharded(t, g, 3, rwrDefaultC)
	if _, _, err := sx.TopKBatch([]int{1, -1}, 5); err == nil {
		t.Error("negative node accepted")
	}
	if _, _, err := sx.TopKBatch([]int{1, g.N()}, 5); err == nil {
		t.Error("out-of-range node accepted")
	}
	if _, _, err := sx.TopKBatch([]int{1, 2}, 0); err == nil {
		t.Error("k=0 accepted")
	}
	if rs, bs, err := sx.TopKBatch(nil, 5); err != nil || len(rs) != 0 || len(bs.PerQuery) != 0 {
		t.Errorf("empty batch: %v %v %v", rs, bs, err)
	}
}

// TestProximityEarlyTermination builds a graph of two mutually
// unreachable halves: a pair query across the halves must answer
// exactly zero (no mass reaches the other half's shards), while a pair
// inside one half stays exact.
func TestProximityEarlyTermination(t *testing.T) {
	half := gen.PlantedPartition(60, 2, 0.3, 0.05, 3)
	b := graph.NewBuilder(120)
	for v := 0; v < 60; v++ {
		half.OutNeighbors(v, func(u int, w float64) {
			if err := b.AddEdge(v, u, w); err != nil {
				t.Fatal(err)
			}
			if err := b.AddEdge(v+60, u+60, w); err != nil {
				t.Fatal(err)
			}
		})
	}
	g := b.Build()
	sx := buildSharded(t, g, 4, rwrDefaultC)

	// Find a cross-half pair whose shards are disconnected in the shard
	// digraph (the halves share no edges, so any q-shard/u-shard pair
	// from different halves is).
	q, u := 5, 65
	if sx.HomeShard(q) == sx.HomeShard(u) {
		t.Fatalf("halves landed in one shard; partitioning changed")
	}
	p, err := sx.Proximity(q, u)
	if err != nil || p != 0 {
		t.Errorf("Proximity(%d,%d) = %v, %v; want 0", q, u, p, err)
	}

	// A within-half pair must stay exact against the whole-graph index.
	whole := buildWhole(t, g, rwrDefaultC)
	for _, pair := range [][2]int{{5, 17}, {65, 90}, {12, 12}} {
		want, err := whole.Proximity(pair[0], pair[1])
		if err != nil {
			t.Fatal(err)
		}
		got, err := sx.Proximity(pair[0], pair[1])
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-want) > scoreTol {
			t.Errorf("Proximity%v = %v, want %v", pair, got, want)
		}
	}
}
