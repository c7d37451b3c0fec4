package kernels

import (
	"math"
	"math/rand"
	"testing"
)

// randStrip builds a padded (rows, vals) strip over a dst of length
// n+1: quads entries of real rows in [0, n), padded to a multiple of
// Width with the trash row n carrying value 0. With dupTrash set, some
// real entries also hit the trash row mid-strip, and rows repeat, to
// exercise in-order accumulation on colliding addresses.
func randStrip(rng *rand.Rand, n, entries int, dupTrash bool) ([]int32, []float64) {
	rows := make([]int32, 0, Pad(entries))
	vals := make([]float64, 0, Pad(entries))
	for i := 0; i < entries; i++ {
		r := int32(rng.Intn(n))
		if dupTrash && rng.Intn(8) == 0 {
			r = int32(n) // trash row, but with a real value
		}
		if dupTrash && i > 0 && rng.Intn(4) == 0 {
			r = rows[i-1] // immediate repeat within a quad
		}
		rows = append(rows, r)
		// Magnitudes spread over many exponents so that accumulation
		// order actually matters at the bit level.
		vals = append(vals, (rng.Float64()-0.5)*math.Ldexp(1, rng.Intn(40)-20))
	}
	for len(rows)%Width != 0 {
		rows = append(rows, int32(n))
		vals = append(vals, 0)
	}
	return rows, vals
}

func bitsEqual(t *testing.T, got, want []float64, label string) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: dst[%d] = %x (%v), scalar reference %x (%v)",
				label, i, math.Float64bits(got[i]), got[i],
				math.Float64bits(want[i]), want[i])
		}
	}
}

// TestScatterAXPYBitIdentical checks the dispatched kernel against the
// scalar reference bit for bit across random strips, including strips
// with duplicate rows, trash-row hits, and non-zero starting contents.
func TestScatterAXPYBitIdentical(t *testing.T) {
	t.Logf("impl=%s", Impl())
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(300)
		entries := rng.Intn(4 * n)
		rows, vals := randStrip(rng, n, entries, trial%2 == 0)
		x := (rng.Float64() - 0.5) * math.Ldexp(1, rng.Intn(20)-10)

		want := make([]float64, n+1)
		got := make([]float64, n+1)
		for i := range want {
			v := (rng.Float64() - 0.5)
			want[i], got[i] = v, v
		}
		ScalarScatterAXPY(want, rows, vals, x)
		ScatterAXPY(got, rows, vals, x)
		bitsEqual(t, got, want, "ScatterAXPY")
	}
}

// TestScatterEmpty checks the zero-length edge.
func TestScatterEmpty(t *testing.T) {
	dst := []float64{1, 2}
	ScatterAXPY(dst, nil, nil, 3)
	if dst[0] != 1 || dst[1] != 2 {
		t.Fatalf("empty scatter modified dst: %v", dst)
	}
}

func TestPad(t *testing.T) {
	cases := [][2]int{{0, 0}, {1, 4}, {3, 4}, {4, 4}, {5, 8}, {8, 8}, {9, 12}}
	for _, c := range cases {
		if got := Pad(c[0]); got != c[1] {
			t.Fatalf("Pad(%d) = %d, want %d", c[0], got, c[1])
		}
	}
}

func benchStrip(n, entries int) ([]float64, []int32, []float64) {
	rng := rand.New(rand.NewSource(42))
	rows, vals := randStrip(rng, n, entries, false)
	dst := make([]float64, n+1)
	return dst, rows, vals
}

func BenchmarkScatterAXPY(b *testing.B) {
	dst, rows, vals := benchStrip(4096, 4096)
	b.SetBytes(int64(len(rows)) * 16) // 8B value + 8B accumulator touched
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ScatterAXPY(dst, rows, vals, 1.0000001)
	}
}

func BenchmarkScatterAXPYScalar(b *testing.B) {
	dst, rows, vals := benchStrip(4096, 4096)
	b.SetBytes(int64(len(rows)) * 16)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ScalarScatterAXPY(dst, rows, vals, 1.0000001)
	}
}
