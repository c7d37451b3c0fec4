// Package topk provides a bounded top-k accumulator for (node, score)
// pairs, used by every search algorithm in the repository.
package topk

import (
	"cmp"
	"slices"
)

// Result is one ranked answer.
type Result struct {
	Node  int
	Score float64
}

// Heap keeps the K largest scores seen so far. The zero value is not
// usable; construct with New.
type Heap struct {
	k     int
	items minHeap
}

// newCap bounds the eager backing-store allocation. Any sane answer set
// fits; a hostile request-supplied k (validated only for positivity by
// the HTTP layer) must not translate into an O(k) allocation, so larger
// heaps grow with the results actually pushed instead.
const newCap = 1024

// New returns a top-k accumulator for k results. k must be positive.
// The backing store is sized up front for every sane k, so an
// accumulator performs no further allocation however many results are
// offered.
func New(k int) *Heap {
	if k <= 0 {
		panic("topk: k must be positive")
	}
	return &Heap{k: k, items: make(minHeap, 0, min(k, newCap))}
}

// K reports the configured capacity.
func (h *Heap) K() int { return h.k }

// Len reports how many results are currently held (<= K).
func (h *Heap) Len() int { return len(h.items) }

// Threshold returns the K-th highest score seen so far, or 0 when fewer
// than K results are held. This is the paper's θ: a new node can only be
// an answer if its score is above it.
func (h *Heap) Threshold() float64 {
	if len(h.items) < h.k {
		return 0
	}
	return h.items[0].Score
}

// Push offers a result; it is kept only if it beats the current threshold
// or the heap is not full. Returns true if the set of kept results changed.
// The sift is hand-rolled rather than container/heap so no Result is ever
// boxed through an interface — Push is allocation-free.
//
//kdash:noalloc
func (h *Heap) Push(node int, score float64) bool {
	if len(h.items) < h.k {
		h.items = append(h.items, Result{node, score})
		h.items.siftUp(len(h.items) - 1)
		return true
	}
	if score > h.items[0].Score || (score == h.items[0].Score && node < h.items[0].Node) {
		h.items[0] = Result{node, score}
		h.items.siftDown(0)
		return true
	}
	return false
}

// Results returns the kept results sorted by descending score, ties broken
// by ascending node id for determinism.
func (h *Heap) Results() []Result {
	out := make([]Result, len(h.items))
	copy(out, h.items)
	SortResults(out)
	return out
}

// SortResults orders results by descending score, then ascending node id.
// slices.SortFunc rather than sort.Slice keeps it allocation-free (no
// interface boxing of the comparator); the (score, node) key is unique,
// so the order is total and sort stability is irrelevant.
func SortResults(rs []Result) {
	slices.SortFunc(rs, func(a, b Result) int {
		if a.Score != b.Score {
			if a.Score > b.Score {
				return -1
			}
			return 1
		}
		return cmp.Compare(a.Node, b.Node)
	})
}

// FromVector returns the top-k entries of a dense score vector.
func FromVector(scores []float64, k int) []Result {
	h := New(k)
	for node, s := range scores {
		h.Push(node, s)
	}
	return h.Results()
}

type minHeap []Result

func (m minHeap) Less(i, j int) bool {
	if m[i].Score != m[j].Score {
		return m[i].Score < m[j].Score
	}
	// Higher node id is "worse" on ties so eviction is deterministic.
	return m[i].Node > m[j].Node
}
func (m minHeap) Swap(i, j int) { m[i], m[j] = m[j], m[i] }

func (m minHeap) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !m.Less(i, parent) {
			break
		}
		m.Swap(i, parent)
		i = parent
	}
}

func (m minHeap) siftDown(i int) {
	n := len(m)
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		small := l
		if r := l + 1; r < n && m.Less(r, l) {
			small = r
		}
		if !m.Less(small, i) {
			break
		}
		m.Swap(i, small)
		i = small
	}
}
