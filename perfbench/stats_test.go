package main

import (
	"math"
	"testing"
)

func TestQuantileInterpolates(t *testing.T) {
	xs := []float64{4, 1, 3, 2} // unsorted on purpose
	for _, c := range []struct{ q, want float64 }{
		{0, 1}, {0.25, 1.75}, {0.5, 2.5}, {0.75, 3.25}, {1, 4},
	} {
		if got := quantile(xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if xs[0] != 4 {
		t.Error("quantile reordered its input")
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("quantile of no samples is not NaN")
	}
}

// TestTailQuantileKeepsTenBeyond checks the rule that a reported tail
// has at least ten samples beyond it.
func TestTailQuantileKeepsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n          int
		want, got  float64
		wantCapped bool
	}{
		{n: 10000, want: 0.99, got: 0.99},
		{n: 1000, want: 0.99, got: 0.99},
		{n: 500, want: 0.99, got: 0.98, wantCapped: true},
		{n: 200, want: 0.90, got: 0.90},
		{n: 40, want: 0.90, got: 0.75, wantCapped: true},
		{n: 15, want: 0.90, got: 0.5, wantCapped: true},
	} {
		q := tailQuantile(c.n, c.want)
		if math.Abs(q-c.got) > 1e-12 {
			t.Errorf("tailQuantile(%d, %v) = %v, want %v", c.n, c.want, q, c.got)
		}
		if beyond := float64(c.n) * (1 - q); c.n >= 2*minBeyond && beyond < minBeyond-1e-9 {
			t.Errorf("n=%d p=%v leaves %.2f samples beyond, want >= %d", c.n, q, beyond, minBeyond)
		}
		if capped := q < c.want; capped != c.wantCapped {
			t.Errorf("n=%d: capped=%v, want %v", c.n, capped, c.wantCapped)
		}
	}
}

func TestLittleWait(t *testing.T) {
	// Two jobs queued on average, 400 leaving per second: 5 ms each.
	if got := littleWait(2, 400); math.Abs(got-5) > 1e-12 {
		t.Errorf("littleWait(2, 400) = %v ms, want 5", got)
	}
	if got := littleWait(0, 400); got != 0 {
		t.Errorf("empty queue waits %v ms, want 0", got)
	}
	if got := littleWait(3, 0); got != 0 {
		t.Errorf("no completions gives %v ms, want 0", got)
	}
}

func TestBetaIncKnownValues(t *testing.T) {
	for _, c := range []struct{ a, b, x, want float64 }{
		{1, 1, 0.3, 0.3},      // uniform CDF
		{2, 1, 0.5, 0.25},     // x^2
		{1, 2, 0.5, 0.75},     // 1-(1-x)^2
		{50, 50, 0.5, 0.5},    // symmetry
		{3, 5, 0.2, 0.148032}, // 1 - sum_{j<3} C(7,j) x^j (1-x)^{7-j}
	} {
		if got := betaInc(c.a, c.b, c.x); math.Abs(got-c.want) > 1e-6 {
			t.Errorf("I_%v(%v, %v) = %v, want %v", c.x, c.a, c.b, got, c.want)
		}
	}
}

func TestHDQuantileIsSmoothAndCentred(t *testing.T) {
	xs := make([]float64, 101)
	for i := range xs {
		xs[i] = float64(i)
	}
	if got := hdQuantile(xs, 0.5); math.Abs(got-50) > 1e-6 {
		t.Errorf("HD median of 0..100 = %v, want 50", got)
	}
	// Two clusters of equal size: a single order statistic at the median
	// sits in one of them; the estimate sits between, and moves little
	// when one sample crosses over.
	var two []float64
	for i := 0; i < 50; i++ {
		two = append(two, 10, 20)
	}
	m := hdQuantile(two, 0.5)
	two[0] = 20
	m2 := hdQuantile(two, 0.5)
	if m <= 10 || m >= 20 || math.Abs(m2-m) > 1 {
		t.Errorf("HD median of two clusters %v, after one crossover %v", m, m2)
	}
}
