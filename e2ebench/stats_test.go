package main

import "testing"

func TestPercentileNearestRank(t *testing.T) {
	var s []float64
	for i := 1; i <= 100; i++ {
		s = append(s, float64(i))
	}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {90, 90}, {99, 99}, {100, 100}, {0.1, 1}} {
		if got := percentile(s, c.p); got != c.want {
			t.Errorf("p%g of 1..100 = %g, want %g", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of no samples = %g, want 0", got)
	}
}

// The reported tail is the highest percentile with at least ten samples
// beyond it.
func TestTailPercentileNeedsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 50}, {99, 50}, {100, 90}, {999, 90}, {1000, 99}, {9999, 99}, {10000, 99.9},
	} {
		if got := tailPercentile(c.n, 50, 90, 99, 99.9); got != c.want {
			t.Errorf("n=%d: tail percentile %g, want %g", c.n, got, c.want)
		}
	}
	if b := beyond(100, 90); b != 10 {
		t.Errorf("samples beyond p90 of 100 = %d, want 10", b)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median of 3 values = %g, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of 4 values = %g, want 2.5", got)
	}
}
