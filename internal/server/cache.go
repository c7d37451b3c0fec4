package server

import (
	"container/list"
	"sync"

	"kdash/internal/topk"
)

// cachedK is the depth of list a cacheable /topk miss asks the engine
// for, however small the request's own k: every later request for the
// same node whose k (plus exclusions) fits is answered from it.
// maxCachedK is where the cache stops trying: a request needing a
// deeper list than topk's eager backing-store cap runs uncached.
const (
	cachedK    = 64
	maxCachedK = 1024
)

// answerCache is a small LRU of exact top-K answers keyed by query
// node. The engine ranks by a total order that does not depend on k
// (score descending, ties by ascending node id) and scores a node
// independently of k, so the top-k answer is a prefix of the top-K list
// for every k <= K and a cached list serves them all bit-identically to
// a fresh search.
// Answers are immutable inside an epoch, so there the only policy is
// recency eviction. Across epochs entries DO go stale — POST /update
// swaps the engine — so the cache is tagged with the epoch its entries
// are exact under: a get or put carrying a newer epoch flushes
// everything first, and a put from a request that raced an update
// (computed under an older epoch) is dropped rather than poisoning the
// new epoch. Guarded by one mutex: a hit is a map lookup plus a list
// splice, far below the cost of the query it saves.
type answerCache struct {
	mu        sync.Mutex
	cap       int
	epoch     int
	ll        *list.List // front = most recently used; values are *cacheEntry
	m         map[int]*list.Element
	bytes     int64 // payload held: 16 bytes per cached result + 8 per shard id
	evictions int64 // entries dropped by LRU pressure (epoch flushes excluded)
}

// cacheEntry is one query node's answer: the engine's own top-k list
// for an exclusion-free search, and the shards that search's push
// solved. Entries are immutable —
// a refill replaces the entry, so readers need no lock.
type cacheEntry struct {
	q       int
	k       int // the K the list was computed for; a shorter list is everything reachable
	results []topk.Result
	shards  []int
}

func (e *cacheEntry) size() int64 { return 16*int64(len(e.results)) + 8*int64(len(e.shards)) }

// answer extracts the top-k answer under an exclusion set, reporting
// whether the entry proves it: either k results survive the filter, or
// the list holds every reachable node and what survives is all there
// is. The slice may alias the entry and must be treated as read-only.
func (e *cacheEntry) answer(k int, exclude map[int]bool) ([]topk.Result, bool) {
	out := e.results
	if len(exclude) > 0 {
		out = make([]topk.Result, 0, min(k, len(e.results)))
		for _, r := range e.results {
			if len(out) == k {
				break
			}
			if !exclude[r.Node] {
				out = append(out, r)
			}
		}
	}
	if len(out) >= k {
		return out[:k], true
	}
	return out, len(e.results) < e.k
}

func newAnswerCache(capacity int) *answerCache {
	return &answerCache{cap: capacity, ll: list.New(), m: make(map[int]*list.Element, capacity)}
}

// get returns the cached entry for q at the given epoch, refreshing its
// recency. An epoch ahead of the cache flushes the stale entries and
// misses.
func (c *answerCache) get(q, epoch int) (*cacheEntry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if epoch != c.epoch {
		if epoch > c.epoch {
			c.flushLocked(epoch)
		}
		return nil, false
	}
	el, ok := c.m[q]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*cacheEntry), true
}

// put inserts (or replaces) an entry computed under the given epoch,
// evicting the least recently used entry when full. An entry computed
// under an older epoch than the cache's is dropped: its request raced
// an update and lost.
func (c *answerCache) put(e *cacheEntry, epoch int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if epoch != c.epoch {
		if epoch < c.epoch {
			return
		}
		c.flushLocked(epoch)
	}
	c.bytes += e.size()
	if el, ok := c.m[e.q]; ok {
		c.ll.MoveToFront(el)
		c.bytes -= el.Value.(*cacheEntry).size()
		el.Value = e
		return
	}
	c.m[e.q] = c.ll.PushFront(e)
	for c.ll.Len() > c.cap {
		c.removeLocked(c.ll.Back())
		c.evictions++
	}
}

// flush drops every entry and advances to the given epoch (no-op for a
// stale epoch).
func (c *answerCache) flush(epoch int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if epoch > c.epoch {
		c.flushLocked(epoch)
	}
}

// retain advances the cache to epoch, carrying over exactly the entries
// whose push solved no dirty shard — the selective invalidation the
// update path uses (see Handler.invalidateCache for the exactness
// argument). An entry that recorded no shards proves nothing and is
// dropped. A stale epoch is a no-op; on the current epoch the walk
// still runs (drops are always safe, a racing put has simply inserted
// fresh entries the test judges conservatively).
func (c *answerCache) retain(epoch int, dirty map[int]bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if epoch < c.epoch {
		return
	}
	var next *list.Element
	for el := c.ll.Front(); el != nil; el = next {
		next = el.Next()
		shards := el.Value.(*cacheEntry).shards
		keep := len(shards) > 0
		for _, si := range shards {
			keep = keep && !dirty[si]
		}
		if !keep {
			c.removeLocked(el)
		}
	}
	c.epoch = epoch
}

func (c *answerCache) removeLocked(el *list.Element) {
	e := c.ll.Remove(el).(*cacheEntry)
	delete(c.m, e.q)
	c.bytes -= e.size()
}

func (c *answerCache) flushLocked(epoch int) {
	c.epoch = epoch
	c.ll.Init()
	clear(c.m)
	c.bytes = 0
}

// stats reports the cache's current footprint and cumulative LRU
// evictions (hit/miss counters live on the handler, which knows whether
// a found entry could actually answer the request).
func (c *answerCache) stats() (entries int, bytes, evictions int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len(), c.bytes, c.evictions
}
