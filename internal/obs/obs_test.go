package obs

import (
	"math/rand"
	"sync"
	"testing"
	"time"
)

// TestBucketInvariants checks the (lo, hi] bucket contract over the
// whole value domain: every value lands in a bucket whose bound is >=
// the value and whose predecessor's bound is < the value.
func TestBucketInvariants(t *testing.T) {
	check := func(v int64) {
		t.Helper()
		i := bucketIndex(v)
		if i < 0 || i >= NumBuckets {
			t.Fatalf("bucketIndex(%d) = %d outside [0,%d)", v, i, NumBuckets)
		}
		if hi := BucketBound(i); v > hi && i != NumBuckets-1 {
			t.Fatalf("value %d above its bucket %d bound %d", v, i, hi)
		}
		if i > 0 {
			if lo := BucketBound(i - 1); v <= lo {
				t.Fatalf("value %d not above bucket %d's lower bound %d", v, i, lo)
			}
		}
	}
	for v := int64(0); v < 5000; v++ {
		check(v)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		check(rng.Int63n(int64(70 * time.Second)))
	}
	// Exact powers of two (above the linear-to-log transition bucket)
	// are bucket boundaries: they must land in the bucket whose upper
	// bound they are.
	for oct := 5; oct <= 34; oct++ {
		v := int64(1) << oct
		if got := BucketBound(bucketIndex(v)); got != v {
			t.Errorf("2^%d: bucket bound %d, want exactly %d", oct, got, v)
		}
	}
	// Bounds are strictly increasing.
	for i := 1; i < NumBuckets; i++ {
		if BucketBound(i) <= BucketBound(i-1) {
			t.Fatalf("bounds not increasing at %d: %d <= %d", i, BucketBound(i), BucketBound(i-1))
		}
	}
}

// TestBucketRelativeError: above the linear region, bucket width stays
// within 12.5% of the value (8 sub-buckets per octave).
func TestBucketRelativeError(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 10000; i++ {
		v := 16 + rng.Int63n(int64(time.Minute))
		idx := bucketIndex(v)
		lo, hi := BucketBound(idx-1), BucketBound(idx)
		if width := float64(hi - lo); width > 0.125*float64(v)+1 {
			t.Fatalf("value %d: bucket width %d exceeds 12.5%%", v, hi-lo)
		}
	}
}

// TestQuantiles: against a known uniform stream, the interpolated
// quantiles must land within the bucket resolution of the true values.
func TestQuantiles(t *testing.T) {
	var h Histogram
	const n = 100000
	for i := 1; i <= n; i++ {
		h.ObserveNS(int64(i) * 1000) // 1µs .. 100ms uniform
	}
	s := h.Snapshot()
	if s.Count != n {
		t.Fatalf("count = %d, want %d", s.Count, n)
	}
	for _, tc := range []struct {
		q    float64
		want float64 // true quantile in ns
	}{{0.5, 50e6}, {0.99, 99e6}, {0.999, 99.9e6}} {
		got := float64(s.Quantile(tc.q))
		if rel := abs(got-tc.want) / tc.want; rel > 0.13 {
			t.Errorf("q%.3f = %.0fns, want ~%.0fns (rel err %.3f)", tc.q, got, tc.want, rel)
		}
	}
	if q := (Snapshot{}).Quantile(0.5); q != 0 {
		t.Errorf("empty snapshot quantile = %d, want 0", q)
	}
	if m := s.Mean(); abs(m-50e6)/50e6 > 0.01 {
		t.Errorf("mean = %.0f, want ~50e6", m)
	}
}

// TestConcurrentObserve hammers one histogram from many goroutines and
// checks no observation is lost (each counter is atomic); run under
// -race in CI this is also the data-race check.
func TestConcurrentObserve(t *testing.T) {
	var h Histogram
	const workers, per = 8, 20000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < per; i++ {
				h.ObserveNS(rng.Int63n(int64(time.Second)))
			}
		}(int64(w))
	}
	wg.Wait()
	if s := h.Snapshot(); s.Count != workers*per {
		t.Fatalf("count = %d, want %d", s.Count, workers*per)
	}
}

// TestObserveClampsNegative: a negative duration (clock weirdness)
// lands in bucket 0 instead of corrupting the index.
func TestObserveClampsNegative(t *testing.T) {
	var h Histogram
	h.Observe(-5 * time.Millisecond)
	h.ObserveNS(-1)
	s := h.Snapshot()
	if s.Count != 2 || s.Counts[0] != 2 {
		t.Fatalf("negative observations: count=%d bucket0=%d, want 2/2", s.Count, s.Counts[0])
	}
	if s.SumNS != 0 {
		t.Fatalf("negative observations summed to %d, want 0", s.SumNS)
	}
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}
