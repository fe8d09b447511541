package main

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"cacqr"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear
// interpolation between order statistics; NaN for an empty sample.
// xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// hdQuantile returns the Harrell–Davis estimate of the q-quantile
// (0 < q < 1) of xs: a weighted mean of every order statistic, the i-th
// weighted by the mass a Beta(q(n+1), (1−q)(n+1)) law puts on
// ((i−1)/n, i/n]. Where a sample has a gap next to the quantile (a
// latency mix of a few request classes does), it moves smoothly as
// samples cross the gap instead of jumping across it. NaN for an empty
// sample. +Inf samples (failed requests) sort last; the estimate is +Inf
// if one carries any weight.
func hdQuantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := float64(len(s))
	a, b := q*(n+1), (1-q)*(n+1)
	var est, prev float64
	for i, x := range s {
		cum := betaInc(a, b, float64(i+1)/n)
		if w := cum - prev; w > 0 {
			est += w * x
		}
		prev = cum
	}
	return est
}

// betaInc is the regularized incomplete beta function I_x(a, b),
// evaluated by its continued fraction (modified Lentz).
func betaInc(a, b, x float64) float64 {
	switch {
	case x <= 0:
		return 0
	case x >= 1:
		return 1
	case x > (a+1)/(a+b+2):
		return 1 - betaInc(b, a, 1-x)
	}
	la, _ := math.Lgamma(a)
	lb, _ := math.Lgamma(b)
	lab, _ := math.Lgamma(a + b)
	front := math.Exp(a*math.Log(x)+b*math.Log1p(-x)-la-lb+lab) / a
	const tiny = 1e-300
	c, d := 1.0, 1-(a+b)*x/(a+1)
	if math.Abs(d) < tiny {
		d = tiny
	}
	d = 1 / d
	f := d
	for m := 1; m <= 300; m++ {
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
			f *= c * d
		}
		if math.Abs(c*d-1) < 1e-15 {
			break
		}
	}
	return front * f
}

// tailLadder lists the percentiles a tail may be reported at, highest
// first.
var tailLadder = []float64{99.9, 99, 95, 90, 75, 50}

// tail returns the highest percentile of xs with at least ten samples
// beyond it, and which percentile that was (0 when the sample is too
// small for any, in which case the maximum is returned).
func tail(xs []float64) (value, pct float64) {
	for _, p := range tailLadder {
		if float64(len(xs))*(1-p/100) >= 10 {
			return quantile(xs, p/100), p
		}
	}
	return quantile(xs, 1), 0
}

// hdTail is tail with the Harrell–Davis estimate (see hdQuantile).
func hdTail(xs []float64) (value, pct float64) {
	for _, p := range tailLadder {
		if float64(len(xs))*(1-p/100) >= 10 {
			return hdQuantile(xs, p/100), p
		}
	}
	return quantile(xs, 1), 0
}

// ms converts durations to float milliseconds.
func ms(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / 1e6
	}
	return out
}

// ratio returns num/den, or 0 when den is 0 (a metric with no base on
// this workload).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// errClass names an error for the failure tally.
func errClass(err error) string {
	switch {
	case errors.Is(err, cacqr.ErrOverloaded):
		return "refused:overloaded"
	case errors.Is(err, cacqr.ErrIllConditioned):
		return "error:ill-conditioned"
	default:
		msg := err.Error()
		if i := strings.IndexAny(msg, "0123456789"); i > 0 {
			msg = msg[:i]
		}
		return "error:" + strings.TrimSpace(msg)
	}
}

// latencyLine renders a latency sample's median and tail with the
// sample count behind them.
func latencyLine(label string, lat []float64) string {
	t, p := tail(lat)
	tailName := fmt.Sprintf("p%g", p)
	if p == 0 {
		tailName = "max (too few samples for a tail)"
	}
	return fmt.Sprintf("%s: n=%d p50 %.3f ms, %s %.3f ms (tail: highest percentile with ≥10 samples beyond), max %.3f ms",
		label, len(lat), median(lat), tailName, t, quantile(lat, 1))
}
