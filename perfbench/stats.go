package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a reported tail
// percentile: a tail backed by fewer samples moves with single jobs.
const minBeyond = 10

// quantile returns the q-quantile (0 <= q <= 1) of xs by linear
// interpolation between closest ranks (the "inclusive" method of
// Python's statistics.quantiles and numpy's default). xs need not be
// sorted; it is not modified. An empty input yields NaN.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

// hdQuantile is the Harrell–Davis estimate of the q-quantile: a
// weighted mean of all order statistics, the i-th weighted by the mass
// a Beta((n+1)q, (n+1)(1-q)) distribution puts on [(i-1)/n, i/n]. A
// fixed cyclic job mix is a handful of latency clusters; a single order
// statistic jumps from one cluster to the next when two of them swap
// places, while this estimate moves smoothly. Latency metrics use it.
func hdQuantile(xs []float64, q float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	if n == 1 || q <= 0 || q >= 1 {
		return quantile(xs, q)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	a, b := float64(n+1)*q, float64(n+1)*(1-q)
	var est float64
	prev := 0.0
	for i := 1; i <= n; i++ {
		cur := betaInc(a, b, float64(i)/float64(n))
		est += (cur - prev) * s[i-1]
		prev = cur
	}
	return est
}

// betaInc is the regularized incomplete beta function I_x(a, b),
// evaluated by its continued fraction (modified Lentz).
func betaInc(a, b, x float64) float64 {
	if x <= 0 {
		return 0
	}
	if x >= 1 {
		return 1
	}
	la, _ := math.Lgamma(a)
	lb, _ := math.Lgamma(b)
	lab, _ := math.Lgamma(a + b)
	front := math.Exp(lab - la - lb + a*math.Log(x) + b*math.Log1p(-x))
	if x > (a+1)/(a+b+2) {
		return 1 - front*betaCF(b, a, 1-x)/b
	}
	return front * betaCF(a, b, x) / a
}

func betaCF(a, b, x float64) float64 {
	const tiny, eps = 1e-300, 1e-15
	c, d := 1.0, 1-(a+b)*x/(a+1)
	if math.Abs(d) < tiny {
		d = tiny
	}
	d = 1 / d
	h := d
	for m := 1; m <= 10000; m++ {
		fm := float64(m)
		for _, num := range []float64{
			fm * (b - fm) * x / ((a + 2*fm - 1) * (a + 2*fm)),
			-(a + fm) * (a + b + fm) * x / ((a + 2*fm) * (a + 2*fm + 1)),
		} {
			d = 1 + num*d
			if math.Abs(d) < tiny {
				d = tiny
			}
			c = 1 + num/c
			if math.Abs(c) < tiny {
				c = tiny
			}
			d = 1 / d
			h *= d * c
		}
		if math.Abs(d*c-1) < eps {
			break
		}
	}
	return h
}

// tailQuantile picks the tail percentile to report for n samples: the
// wanted one when at least minBeyond samples lie beyond it, else the
// highest one that keeps minBeyond samples beyond it (never below the
// median).
func tailQuantile(n int, want float64) float64 {
	if n <= 0 {
		return want
	}
	limit := 1 - float64(minBeyond)/float64(n)
	if limit < 0.5 {
		limit = 0.5
	}
	return math.Min(want, limit)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// littleWait applies Little's law to the admission queue: with a mean
// of queueLen jobs waiting and jobs leaving at completionRate per
// second, a job waits queueLen/completionRate seconds on average. It
// returns the wait in milliseconds, 0 when nothing completed.
func littleWait(queueLen, completionRate float64) float64 {
	if completionRate <= 0 {
		return 0
	}
	return 1000 * queueLen / completionRate
}
