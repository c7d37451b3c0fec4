package experiments

import "testing"

// The kernels sweep is self-calibrating (no config knobs), so the smoke
// test just runs it and checks shape and sanity of every row.
func TestKernelsSmoke(t *testing.T) {
	rows, err := Kernels(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if want := len(kernelStripLens) * 2; len(rows) != want {
		t.Fatalf("got %d rows, want %d (2 impls per strip length)", len(rows), want)
	}
	for _, r := range rows {
		if r.NsPerOp <= 0 || r.GBps <= 0 {
			t.Fatalf("non-positive measurement: %+v", r)
		}
		if r.Impl != "scalar" && r.Impl != "avx2" && r.Impl != "neon" {
			t.Fatalf("unknown impl %q", r.Impl)
		}
	}
}
