// Package obs is the engine's observability toolkit: lock-free latency
// histograms, per-query execution traces, and a hand-rolled Prometheus
// text-exposition writer. It sits below every other package — obs
// depends only on the standard library — so the solver seams
// (internal/shard, internal/core) can record into its types without an
// import cycle, and internal/server can export them over /statz and
// /metrics.
//
// The histogram is log-linear bucketed (exact below 16 ns, then 8
// sub-buckets per power of two, ≤ 12.5% relative bucket width) and
// striped across cache-line-padded counter banks, so concurrent
// observers on the query hot path never contend on one atomic.
// Snapshots are mergeable — the property /metrics relies on when it
// folds the stripes — and quantiles are interpolated inside the
// resolved bucket. See docs/OBSERVABILITY.md for the exported metric
// reference.
package obs

import (
	"math/bits"
	"math/rand/v2"
	"sync/atomic"
	"time"
)

// Bucketing: values 0..15 ns map to their own exact bucket (indexes
// 0..15); above that, each power-of-two octave splits into 8 linear
// sub-buckets. numBuckets covers everything up to ~68 s (octave 36);
// longer observations clamp into the last bucket.
const (
	linearBuckets = 16
	subBuckets    = 8
	maxOctave     = 36
	numBuckets    = linearBuckets + (maxOctave-4)*subBuckets
)

// stripes is the number of independent counter banks. Observers pick a
// bank pseudo-randomly (math/rand/v2's per-thread generator, no
// locks), so with more P's than stripes the worst case is still only
// GOMAXPROCS/stripes-way sharing of one atomic.
const stripes = 16

// bucketIndex maps a non-negative nanosecond value to its bucket.
// Buckets are upper-inclusive — BucketBound(i-1) < v <= BucketBound(i)
// — so a cumulative count at any bound is an exact Prometheus-style
// `le` count.
func bucketIndex(v int64) int {
	if v < linearBuckets {
		if v < 0 {
			v = 0
		}
		return int(v)
	}
	w := uint64(v - 1) // upper-inclusive: v sits with its predecessor's octave
	if w < linearBuckets {
		return linearBuckets // v == linearBuckets exactly
	}
	b := bits.Len64(w) // >= 5
	idx := linearBuckets + (b-5)*subBuckets + int((w>>(b-4))&7)
	if idx >= numBuckets {
		return numBuckets - 1
	}
	return idx
}

// BucketBound returns the inclusive upper bound (in ns) of bucket i:
// every observation v with bucketIndex(v) == i satisfies
// BucketBound(i-1) < v <= BucketBound(i).
func BucketBound(i int) int64 {
	if i < linearBuckets {
		return int64(i)
	}
	rel := i - linearBuckets
	octave := rel/subBuckets + 4 // values have bit length octave+1
	sub := rel % subBuckets
	return int64(1)<<octave + int64(sub+1)<<(octave-3)
}

// NumBuckets is the histogram resolution — Snapshot.Counts has this
// many entries.
const NumBuckets = numBuckets

// pad keeps each stripe's trailing sum/count pair off its neighbours'
// cache lines; the bucket arrays themselves are large enough that only
// their edges could ever false-share.
type stripe struct {
	counts [numBuckets]atomic.Uint64
	sum    atomic.Int64 // total observed ns
	_      [48]byte
}

// Histogram is a lock-free, mergeable log-bucketed latency histogram.
// The zero value is ready to use. Observe is safe for any number of
// concurrent callers; Snapshot may run concurrently with observers and
// sees a consistent-enough view (each counter is read atomically; a
// racing observation may or may not be included).
type Histogram struct {
	stripes [stripes]stripe
}

// Observe records one duration. Negative durations clamp to zero.
func (h *Histogram) Observe(d time.Duration) {
	h.ObserveNS(int64(d))
}

// ObserveNS records one duration given in nanoseconds.
func (h *Histogram) ObserveNS(ns int64) {
	if ns < 0 {
		ns = 0
	}
	s := &h.stripes[rand.Uint32N(stripes)]
	s.counts[bucketIndex(ns)].Add(1)
	s.sum.Add(ns)
}

// Snapshot folds the stripes into one immutable view.
func (h *Histogram) Snapshot() Snapshot {
	var s Snapshot
	s.Counts = make([]uint64, numBuckets)
	for i := range h.stripes {
		st := &h.stripes[i]
		for b := 0; b < numBuckets; b++ {
			s.Counts[b] += st.counts[b].Load()
		}
		s.SumNS += st.sum.Load()
	}
	for _, c := range s.Counts {
		s.Count += c
	}
	return s
}

// Snapshot is one point-in-time view of a Histogram: per-bucket counts
// (bucket i holds observations in (BucketBound(i-1), BucketBound(i)]),
// the total count and the summed nanoseconds.
type Snapshot struct {
	Counts []uint64
	Count  uint64
	SumNS  int64
}

// Quantile returns the q-quantile (0 <= q <= 1) in nanoseconds,
// linearly interpolated inside the resolved bucket. An empty snapshot
// returns 0.
func (s Snapshot) Quantile(q float64) int64 {
	if s.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := q * float64(s.Count)
	cum := 0.0
	for i, c := range s.Counts {
		if c == 0 {
			continue
		}
		next := cum + float64(c)
		if next >= target {
			lo := float64(0)
			if i > 0 {
				lo = float64(BucketBound(i - 1))
			}
			hi := float64(BucketBound(i))
			frac := 0.0
			if c > 0 {
				frac = (target - cum) / float64(c)
			}
			return int64(lo + (hi-lo)*frac)
		}
		cum = next
	}
	return BucketBound(numBuckets - 1)
}

// Mean returns the mean observation in nanoseconds (0 when empty).
func (s Snapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.SumNS) / float64(s.Count)
}
