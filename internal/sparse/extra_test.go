package sparse

import "testing"

func TestMulVecPanicsOnShape(t *testing.T) {
	m := NewCOO(3, 4).ToCSC()
	for name, fn := range map[string]func(){
		"x": func() { m.MulVecTo(make([]float64, 3), make([]float64, 3)) },
		"y": func() { m.MulVecTo(make([]float64, 2), make([]float64, 4)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected shape panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestPermuteSymRejectsRectangular(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for rectangular PermuteSym")
		}
	}()
	NewCOO(2, 3).ToCSC().PermuteSym([]int{0, 1})
}

func TestNegativeDimensionPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for negative dimension")
		}
	}()
	NewCOO(-1, 2)
}

func TestEmptyMatrixOps(t *testing.T) {
	m := NewCOO(0, 0).ToCSC()
	if m.NNZ() != 0 || m.Max() != 0 {
		t.Errorf("empty matrix nnz=%d max=%v", m.NNZ(), m.Max())
	}
	m.MulVecTo(nil, nil)
	if cm := m.ColMax(); len(cm) != 0 {
		t.Errorf("empty ColMax = %v", cm)
	}
}
