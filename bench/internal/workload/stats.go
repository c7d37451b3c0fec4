package workload

import (
	"math"
	"sort"
	"time"
)

// Median returns the median of vs (the mean of the two middle values for
// an even count) and 0 for an empty slice. vs is not modified.
func Median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := sorted(vs)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// Mean returns the arithmetic mean of vs, 0 for an empty slice.
func Mean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range vs {
		sum += v
	}
	return sum / float64(len(vs))
}

// MinPercentileTail is how many samples must lie beyond a percentile for
// it to be reported: a p99 of 100 samples is one sample's value, not a
// percentile.
const MinPercentileTail = 10

// Percentile returns the p-th percentile (0 < p < 100, nearest rank) of
// vs, and false when fewer than MinPercentileTail samples lie beyond it.
func Percentile(vs []float64, p float64) (float64, bool) {
	s := sorted(vs)
	rank := int(math.Ceil(p*float64(len(s))/100 - 1e-9)) // the epsilon keeps 90 % of 100 at rank 90
	if rank < 1 || len(s)-rank < MinPercentileTail {
		return 0, false
	}
	return s[rank-1], true
}

// Quartiles returns the first and third quartile of vs as Python's
// statistics.quantiles(vs, n=4) computes them (exclusive method), which
// is what the benchmark's acceptance rule is stated in. It needs at
// least two values.
func Quartiles(vs []float64) (q1, q3 float64) {
	s := sorted(vs)
	at := func(i int) float64 {
		pos := float64(i) * float64(len(s)+1) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > len(s)-1 {
			j = len(s) - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(3)
}

// Spread is the interquartile range of vs as a share of its median.
func Spread(vs []float64) float64 {
	q1, q3 := Quartiles(vs)
	return (q3 - q1) / Median(vs)
}

func sorted(vs []float64) []float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	return s
}

// Calibration arrays: a scatter-add of 64 Ki entries into a 256 KiB
// destination, the access pattern of the engine's inner loop.
var calibDst, calibRows, calibVals = func() ([]float64, []int32, []float64) {
	rng := NewRNG(1, 0)
	dst, rows, vals := make([]float64, 1<<15), make([]int32, 1<<16), make([]float64, 1<<16)
	for i := range rows {
		rows[i] = int32(rng.Intn(len(dst)))
		vals[i] = rng.Float64()
	}
	return dst, rows, vals
}()

// HostCalibUS times a fixed scatter loop (16 sweeps of 64 Ki entries) in
// the calling process, in µs. It does no work for the benchmark: a run
// whose calibration is slow sat on a slow host, which explains drift in
// every other timing.
func HostCalibUS() float64 {
	t0 := time.Now()
	for sweep := 0; sweep < 16; sweep++ {
		x := 1 / float64(sweep+2)
		for i, r := range calibRows {
			calibDst[r] += calibVals[i] * x
		}
	}
	return float64(time.Since(t0).Nanoseconds()) / 1e3
}
