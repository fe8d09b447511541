package main

import (
	"fmt"
	"math"

	"cacqr"
	"cacqr/internal/lin"
	"cacqr/internal/plan"
)

// Output checks. Every comparison is written as !(x <= bound), so a NaN
// anywhere fails it.

// residualBound is the fixed multiple of ε the relative residual
// ‖A − QR‖_F / ‖A‖_F must stay within.
const residualBound = 1000 * lin.Eps

// orthSlack is the factor by which ‖QᵀQ − I‖ may exceed the promised
// bound before the output fails its check. The exact ratio is reported
// as numerics.orth_over_bound, and every operation above 1× is counted
// in the report as over its promise: today the streaming path measures
// about 1.2× its stable-regime floor, which this margin keeps a
// reported finding rather than a failed operation.
const orthSlack = 10

// solveBoundPerKappa scales the least-squares forward-error bound: the
// solution of a consistent system must match the Householder reference
// to solveBoundPerKappa·κ·ε relative error.
const solveBoundPerKappa = 1000

// factorCheck is the result of checking one factorization.
type factorCheck struct {
	orth  float64 // ‖QᵀQ − I‖_F
	bound float64 // the variant's promised bound at the input's κ
	fails []string
}

// checkFactors checks that Q and R are finite, that Q is as orthogonal
// as plan.PredictOrthogonality promises for variant v at the input's
// condition number kappa, and that QR reproduces A to residualBound.
func checkFactors(a, q, r *cacqr.Dense, v plan.Variant, panelWidth int, kappa float64) factorCheck {
	c := factorCheck{orth: math.NaN(), bound: plan.PredictOrthogonality(v, a.Rows, a.Cols, panelWidth, kappa)}
	if q == nil || r == nil || q.Rows != a.Rows || q.Cols != a.Cols || r.Rows != a.Cols || r.Cols != a.Cols {
		c.fails = append(c.fails, "shape")
		return c
	}
	if !finite(q.Data) || !finite(r.Data) {
		c.fails = append(c.fails, "finite")
	}
	ql := lin.FromSlice(q.Rows, q.Cols, q.Data)
	c.orth = lin.OrthogonalityError(ql)
	if !(c.orth <= orthSlack*c.bound) {
		c.fails = append(c.fails, "orthogonality")
	}
	res := lin.ResidualNorm(lin.FromSlice(a.Rows, a.Cols, a.Data), ql, lin.FromSlice(r.Rows, r.Cols, r.Data))
	if !(res <= residualBound) {
		c.fails = append(c.fails, "residual")
	}
	return c
}

// checkSolve compares a least-squares solution with the Householder
// reference xRef of a system with condition number kappa.
func checkSolve(x, xRef []float64, kappa float64) []string {
	if len(x) != len(xRef) {
		return []string{"solve-shape"}
	}
	var num, den float64
	for i := range x {
		d := x[i] - xRef[i]
		num += d * d
		den += xRef[i] * xRef[i]
	}
	if !(math.Sqrt(num) <= solveBoundPerKappa*math.Max(kappa, 1)*lin.Eps*math.Sqrt(den)) {
		return []string{"solve"}
	}
	return nil
}

// householderSolve is the reference least-squares solution.
func householderSolve(a *cacqr.Dense, b []float64) ([]float64, error) {
	f, err := lin.HouseholderQR(lin.FromSlice(a.Rows, a.Cols, a.Data))
	if err != nil {
		return nil, err
	}
	return f.LeastSquares(b)
}

func finite(xs []float64) bool {
	for _, x := range xs {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}

// counterCheck verifies that the program's exact counters repeat
// between operations with the same key (shape and plan): the first
// operation of a key sets the expectation, and any later difference is
// reported as a drift.
type counterCheck struct {
	first map[string]cacqr.CostStats
}

func newCounterCheck() *counterCheck {
	return &counterCheck{first: map[string]cacqr.CostStats{}}
}

// observe returns the name of the first counter that differs from the
// key's first observation, or "" when they all repeat.
func (c *counterCheck) observe(key string, st cacqr.CostStats) string {
	f, ok := c.first[key]
	if !ok {
		c.first[key] = st
		return ""
	}
	switch {
	case st.Msgs != f.Msgs:
		return fmt.Sprintf("counter-drift:msgs(%s)", key)
	case st.Words != f.Words:
		return fmt.Sprintf("counter-drift:words(%s)", key)
	case st.Flops != f.Flops:
		return fmt.Sprintf("counter-drift:flops(%s)", key)
	case st.Bytes != f.Bytes:
		return fmt.Sprintf("counter-drift:bytes(%s)", key)
	}
	return ""
}

// numerics tracks checked outputs' orthogonality against the promise.
type numerics struct {
	checked     int
	overPromise int     // outputs with ‖QᵀQ−I‖ above the promised bound
	orthMax     float64 // worst ‖QᵀQ−I‖
	orthRatio   float64 // worst ‖QᵀQ−I‖ / promised bound
}

func (nm *numerics) observe(c factorCheck) {
	nm.checked++
	if !(c.orth <= c.bound) {
		nm.overPromise++
	}
	nm.orthMax = nanMax(nm.orthMax, c.orth)
	nm.orthRatio = nanMax(nm.orthRatio, c.orth/c.bound)
}

func (nm *numerics) merge(o numerics) {
	nm.checked += o.checked
	nm.overPromise += o.overPromise
	nm.orthMax = nanMax(nm.orthMax, o.orthMax)
	nm.orthRatio = nanMax(nm.orthRatio, o.orthRatio)
}

// report logs the tally and sets the numerics metrics (kept only by a
// traced run, whose metric set lists them).
func (nm *numerics) report(out *outcome) {
	out.logf("orthogonality: %d of %d checked outputs above PredictOrthogonality's promise; worst ‖QᵀQ−I‖ %.3g, worst ratio to the promise %.3f (the check fails above %d×)",
		nm.overPromise, nm.checked, nm.orthMax, nm.orthRatio, orthSlack)
	out.set("numerics.orth_err_max", nm.orthMax)
	out.set("numerics.orth_over_bound", nm.orthRatio)
}

// nanMax is max that lets a NaN through, so a NaN error is reported
// rather than hidden by a finite maximum.
func nanMax(a, b float64) float64 {
	if b != b || b > a {
		return b
	}
	return a
}
