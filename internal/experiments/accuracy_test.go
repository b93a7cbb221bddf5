package experiments

import "testing"

func TestDescriptive(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	if m := mean(xs); m != 2.5 {
		t.Errorf("mean = %v, want 2.5", m)
	}
	if v := maxOf(xs); v != 4 {
		t.Errorf("maxOf = %v", v)
	}
}

func TestDescriptiveEmpty(t *testing.T) {
	if mean(nil) != 0 || maxOf(nil) != 0 {
		t.Error("empty-slice statistics must be 0")
	}
}
