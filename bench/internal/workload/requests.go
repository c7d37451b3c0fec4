package workload

import "container/list"

// UniformQueries draws count query nodes uniformly from [0,n).
func UniformQueries(n, count int, seed int64) []int {
	rng := NewRNG(seed, streamUniform)
	qs := make([]int, count)
	for i := range qs {
		qs[i] = rng.Intn(n)
	}
	return qs
}

// Hot-set shape of topk_hotset_cached: the hot set fits the server's
// cache, the uniform tail never does and evicts.
const (
	CacheEntries = 256
	HotNodes     = 128
	HotShare     = 0.9
)

// HotsetQueries draws count query nodes, HotShare of them from a seeded
// set of HotNodes distinct nodes and the rest uniformly from [0,n).
func HotsetQueries(n, count int, seed int64) []int {
	rng := NewRNG(seed, streamHotset)
	hot := distinct(rng, n, HotNodes)
	qs := make([]int, count)
	for i := range qs {
		if rng.Float64() < HotShare {
			qs[i] = hot[rng.Intn(len(hot))]
		} else {
			qs[i] = rng.Intn(n)
		}
	}
	return qs
}

func distinct(rng *RNG, n, count int) []int {
	if count > n {
		count = n
	}
	seen := make(map[int]bool, count)
	out := make([]int, 0, count)
	for len(out) < count {
		if v := rng.Intn(n); !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	return out
}

// LRUHits replays a query list through an LRU of the given capacity and
// returns how many queries hit: with one connection and a fixed list the
// server's hit count is this pure function of the list.
func LRUHits(qs []int, capacity int) int {
	recency := list.New() // front = most recently used
	at := make(map[int]*list.Element, capacity)
	hits := 0
	for _, q := range qs {
		if el, ok := at[q]; ok {
			hits++
			recency.MoveToFront(el)
			continue
		}
		at[q] = recency.PushFront(q)
		if recency.Len() > capacity {
			delete(at, recency.Remove(recency.Back()).(int))
		}
	}
	return hits
}

// OracleQueries draws the count nodes re-issued against the iterative
// oracle after a measured phase.
func OracleQueries(n, count int, seed int64) []int {
	return distinct(NewRNG(seed, streamOracle), n, count)
}

// UpdateEdges draws count batches of two edges each that are absent from
// the graph and from every other batch, so that adding a batch and later
// removing it returns the graph to its original state.
func UpdateEdges(n int, edges []Edge, count int, seed int64) [][2]Edge {
	rng := NewRNG(seed, streamUpdates)
	taken := make(map[Edge]bool, len(edges)+2*count)
	for _, e := range edges {
		taken[e] = true
	}
	fresh := func() Edge {
		for {
			e := Edge{rng.Intn(n), rng.Intn(n)}
			if e.From != e.To && !taken[e] {
				taken[e] = true
				return e
			}
		}
	}
	out := make([][2]Edge, count)
	for i := range out {
		out[i] = [2]Edge{fresh(), fresh()}
	}
	return out
}
