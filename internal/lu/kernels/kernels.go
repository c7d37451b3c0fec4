// Package kernels holds the scalar sparse scatter
// dst[rows[k]] += vals[k]*x. No solve calls it: the solve loops live
// in internal/lu, over L⁻¹ by column and U⁻¹ by row. The package stays
// only because the benchmark's trace layer times these two functions.
package kernels

// ScatterAXPY computes dst[rows[k]] += vals[k] * x for every k in
// ascending order. len(vals) must be at least len(rows), and every
// rows[k] must index inside dst. It is ScalarScatterAXPY.
//
//kdash:noalloc
func ScatterAXPY(dst []float64, rows []int32, vals []float64, x float64) {
	ScalarScatterAXPY(dst, rows, vals, x)
}

// ScalarScatterAXPY is the scatter loop ScatterAXPY runs.
//
//kdash:noalloc
func ScalarScatterAXPY(dst []float64, rows []int32, vals []float64, x float64) {
	vals = vals[:len(rows)] // hint: drops the vals[k] bounds check
	for k, r := range rows {
		dst[r] += vals[k] * x
	}
}
