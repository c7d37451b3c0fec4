package kernels

import (
	"math/rand"
	"testing"
)

// TestScatterEmpty checks the zero-length edge.
func TestScatterEmpty(t *testing.T) {
	dst := []float64{1, 2}
	ScatterAXPY(dst, nil, nil, 3)
	if dst[0] != 1 || dst[1] != 2 {
		t.Fatalf("empty scatter modified dst: %v", dst)
	}
}

func BenchmarkScatterAXPY(b *testing.B) {
	const n = 4096
	rng := rand.New(rand.NewSource(42))
	dst := make([]float64, n)
	rows := make([]int32, n)
	vals := make([]float64, n)
	for i := range rows {
		rows[i] = int32(rng.Intn(n))
		vals[i] = rng.Float64() - 0.5
	}
	b.SetBytes(int64(len(rows)) * 16) // 8B value + 8B accumulator touched
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ScatterAXPY(dst, rows, vals, 1.0000001)
	}
}
