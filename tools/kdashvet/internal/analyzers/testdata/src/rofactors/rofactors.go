// Golden tests for the rofactors analyzer: //kdash:readonly factor
// arrays must not be written outside //kdash:mutates-factors functions.
package rofactors

type factors struct {
	//kdash:readonly
	lPtr []int
	//kdash:readonly
	lVal    []float64
	scratch []float64
}

//kdash:mutates-factors
func build(n int) *factors {
	f := &factors{}
	f.lPtr = make([]int, n+1) // ok: constructor allowlist
	f.lVal = make([]float64, n)
	f.lPtr[0] = 1
	return f
}

func readOnlyUse(f *factors, x []float64) {
	for i := range x {
		x[i] *= f.lVal[i%len(f.lVal)] // ok: reads never taint
	}
}

func corrupt(f *factors) {
	f.lPtr[0] = 7 // want `write into read-only factor array lPtr`
	f.lVal = nil  // want `write into read-only factor array lVal`
	f.lPtr[1]++   // want `increment of read-only factor array lPtr`
}

func extend(f *factors, more []float64) {
	f.lVal = append(f.lVal, more...) // want `write into read-only factor array lVal` `append into read-only factor array lVal`
}

func scrub(f *factors, dst []float64) {
	copy(f.lVal, dst) // want `copy writes into read-only factor array lVal`
	clear(f.lPtr)     // want `clear writes into read-only factor array lPtr`
}

func aliasWrite(f *factors) {
	v := f.lVal
	v[0] = 1 // want `write into read-only factor array v \(alias of a read-only factor array\)`
}

func resliceAlias(f *factors) {
	v := f.lVal
	u := v[:1]
	u[0] = 2 // want `write into read-only factor array u`
}

func pointerEscape(f *factors) *float64 {
	return &f.lVal[0] // want `taking a writable pointer into read-only factor array lVal`
}

func scalarCopyIsClean(f *factors) float64 {
	x := f.lVal[0] // ok: element read copies, no aliasing
	x = x * 2
	return x
}

func scratchIsWritable(f *factors, n int) {
	f.scratch = f.scratch[:0] // ok: unannotated field
	f.scratch = append(f.scratch, float64(n))
	f.scratch[0] = 1
}

func suppressedPatch(f *factors) {
	f.lVal[0] = 0 //kdash:allow(rofactors) heap-owned test fixture, never the sealed copy
}
