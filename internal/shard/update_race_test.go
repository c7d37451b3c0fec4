package shard

// The update path's concurrency contract: Apply is functional and
// epochs are published through an atomic pointer, so a query running
// concurrently with updates must observe exactly one epoch — its
// answer matches the pre- or post-update index it loaded, never a
// blend. The readers here hammer the pooled TopK and TopKBatch paths
// while a writer applies a chain of updates; under `go test -race` this
// is also the data-race proof for sharing untouched parts (and their
// lazily built memos and sync.Pools) across epochs.

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"kdash/internal/reorder"
	"kdash/internal/testutil"
	"kdash/internal/topk"
)

func fingerprint(rs []topk.Result) string {
	s := ""
	for _, r := range rs {
		s += fmt.Sprintf("%d:%b;", r.Node, r.Score)
	}
	return s
}

func TestConcurrentApplyAndQueryEpochAtomicity(t *testing.T) {
	const (
		epochs  = 6
		readers = 6
		k       = 6
	)
	g := testutil.Clustered(200, 5, 31)
	sx, err := Build(g, Options{Shards: 5, Reorder: reorder.Hybrid, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	queries := []int{0, 37, 81, 144, 199}

	// Precompute the epoch chain and, per epoch, the exact expected
	// answer fingerprints for the fixed query set (single and batched).
	chain := []*ShardedIndex{sx}
	for e := 0; e < epochs; e++ {
		cur := chain[len(chain)-1]
		d := cur.Graph().NewDelta()
		from := queries[e%len(queries)]
		if err := d.AddEdge(from, (from+59)%cur.N(), 1.0+float64(e)); err != nil {
			t.Fatal(err)
		}
		next, _, err := cur.Apply(d)
		if err != nil {
			t.Fatal(err)
		}
		chain = append(chain, next)
	}
	type expected struct {
		single map[int]string
		batch  string
	}
	want := make(map[*ShardedIndex]expected, len(chain))
	for _, ix := range chain {
		exp := expected{single: map[int]string{}}
		for _, q := range queries {
			rs, _, err := ix.TopK(q, k)
			if err != nil {
				t.Fatal(err)
			}
			exp.single[q] = fingerprint(rs)
		}
		brs, _, err := ix.TopKBatch(queries, k)
		if err != nil {
			t.Fatal(err)
		}
		for _, rs := range brs {
			exp.batch += fingerprint(rs) + "|"
		}
		want[ix] = exp
	}

	// Readers race the publisher. Each read loads the pointer once and
	// must reproduce exactly that epoch's precomputed answer.
	var ptr atomic.Pointer[ShardedIndex]
	ptr.Store(chain[0])
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < readers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				ix := ptr.Load()
				exp := want[ix]
				q := queries[(w+i)%len(queries)]
				if w%2 == 0 {
					rs, _, err := ix.TopK(q, k)
					if err != nil {
						t.Errorf("reader %d: %v", w, err)
						return
					}
					if got := fingerprint(rs); got != exp.single[q] {
						t.Errorf("reader %d epoch %d q=%d: answer does not match its epoch\n got %s\nwant %s",
							w, ix.Epoch(), q, got, exp.single[q])
						return
					}
				} else {
					brs, _, err := ix.TopKBatch(queries, k)
					if err != nil {
						t.Errorf("reader %d: %v", w, err)
						return
					}
					got := ""
					for _, rs := range brs {
						got += fingerprint(rs) + "|"
					}
					if got != exp.batch {
						t.Errorf("reader %d epoch %d: batch answer does not match its epoch", w, ix.Epoch())
						return
					}
				}
			}
		}(w)
	}
	// Publish the chain while the readers run.
	for _, ix := range chain[1:] {
		ptr.Store(ix)
		// A little real query work between swaps keeps the pools hot.
		if _, _, err := ix.TopK(queries[0], k); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
}

// TestSharedPartPoolsUnderApply runs queries on two epochs that share
// parts — and, when its vectors fit, the index's one vector pool, which
// a successor inherits — while a writer applies a chain of updates to
// the newer one. Every answer must equal its epoch's sequential answer;
// under -race this is the data-race proof for the shared scratch pool.
func TestSharedPartPoolsUnderApply(t *testing.T) {
	const (
		readers = 4
		k       = 6
	)
	g := testutil.Clustered(200, 5, 31)
	old, err := Build(g, Options{Shards: 5, Reorder: reorder.Hybrid, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	d := g.NewDelta()
	if err := d.AddEdge(0, 59, 2); err != nil {
		t.Fatal(err)
	}
	cur, _, err := old.Apply(d)
	if err != nil {
		t.Fatal(err)
	}
	shared := 0
	for si := range old.parts {
		if old.parts[si] == cur.parts[si] {
			shared++
		}
	}
	if shared == 0 {
		t.Fatal("the two epochs share no part")
	}
	queries := []int{0, 37, 81, 144, 199}
	epochs := []*ShardedIndex{old, cur}
	want := make([]map[int]string, len(epochs))
	for e, ix := range epochs {
		want[e] = map[int]string{}
		for _, q := range queries {
			rs, _, err := ix.TopK(q, k)
			if err != nil {
				t.Fatal(err)
			}
			want[e][q] = fingerprint(rs)
		}
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < readers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			e := w % len(epochs)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				q := queries[(w+i)%len(queries)]
				rs, _, err := epochs[e].TopK(q, k)
				if err != nil {
					t.Errorf("reader %d: %v", w, err)
					return
				}
				if got := fingerprint(rs); got != want[e][q] {
					t.Errorf("reader %d epoch %d q=%d: answer changed under a concurrent Apply", w, e, q)
					return
				}
			}
		}(w)
	}
	for e := 0; e < 4; e++ {
		d := cur.Graph().NewDelta()
		from := queries[e%len(queries)]
		if err := d.AddEdge(from, (from+71)%cur.N(), 1); err != nil {
			t.Fatal(err)
		}
		if _, _, err := cur.Apply(d); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
}
