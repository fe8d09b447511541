// Package core implements the paper's contribution: the CholeskyQR family
// of QR factorization algorithms, from the sequential building blocks
// (Algorithms 4–5) through the existing 1D parallelization (Algorithms
// 6–7) to the new communication-avoiding CA-CQR2 over a tunable c × d × c
// processor grid (Algorithms 8–9), plus the shifted CholeskyQR3 extension
// the paper's conclusion points to.
//
// All parallel variants run on the simmpi runtime, so every invocation
// yields both a numerical result and exact per-processor α-β-γ cost
// measurements.
package core

import (
	"errors"
	"fmt"
	"math"

	"cacqr/internal/lin"
)

// ErrIllConditioned is returned when CholeskyQR's Gram matrix is not
// numerically positive definite, which happens when κ(A)² overflows the
// precision (the §I condition κ(A) ≲ 1/√ε).
var ErrIllConditioned = errors.New("core: matrix too ill-conditioned for CholeskyQR (try ShiftedCQR3)")

// CholeskyQR computes the reduced factorization A = Q·R by one CholeskyQR
// pass (Algorithm 4): W = AᵀA, R = chol(W)ᵀ, Q = A·R⁻¹. The orthogonality
// error of Q grows as Θ(κ(A)²·ε); the residual stays O(ε).
//
// workers bounds the goroutines the level-3 kernels may use (0 =
// GOMAXPROCS, 1 = serial); results are identical for any value.
func CholeskyQR(a *lin.Matrix, workers int) (q, r *lin.Matrix, err error) {
	return choleskyQR(a, workers, false)
}

// CholeskyQR2 computes A = Q·R by two CholeskyQR passes (Algorithm 5).
// When κ(A) ≲ 1/√ε, Q is orthogonal to working accuracy — as good as
// Householder QR.
func CholeskyQR2(a *lin.Matrix, workers int) (q, r *lin.Matrix, err error) {
	q1, r1, err := CholeskyQR(a, workers)
	if err != nil {
		return nil, nil, err
	}
	q, r2, err := CholeskyQR(q1, workers)
	if err != nil {
		return nil, nil, err
	}
	r = r2.Clone()
	lin.Trmm(lin.Right, lin.Upper, false, r1, r) // R = R2·R1
	return q, r, nil
}

// ShiftedCholeskyQR performs one CholeskyQR pass on the shifted Gram
// matrix AᵀA + sI, which is positive definite for any A when the shift
// follows Fukaya et al. (the paper's reference [3]; see cholShifted).
// The resulting Q is far from orthogonal but has condition number small
// enough for CholeskyQR2 to finish the job.
func ShiftedCholeskyQR(a *lin.Matrix, workers int) (q, r *lin.Matrix, err error) {
	return choleskyQR(a, workers, true)
}

// choleskyQR is the one sequential pass body behind CholeskyQR and
// ShiftedCholeskyQR.
func choleskyQR(a *lin.Matrix, workers int, shifted bool) (q, r *lin.Matrix, err error) {
	if a.Rows < a.Cols {
		return nil, nil, lin.ErrShape
	}
	l, y, err := cholShifted(lin.SyrkNewParallel(workers, a), a.Rows, shifted)
	if err != nil {
		return nil, nil, err
	}
	// Q = A·R⁻¹ = A·(L⁻¹)ᵀ, applied as a triangular multiply: Y = L⁻¹ is
	// lower triangular, so the dense GEMM formulation would spend half its
	// flops multiplying by exact zeros.
	q = a.Clone()
	lin.TrmmParallel(workers, lin.Right, lin.Lower, true, y, q)
	return q, l.T(), nil
}

// cholShifted is the Cholesky step every CholeskyQR pass shares — the
// sequential, 1D and batched drivers alike. It factors the n×n Gram
// matrix w of an m-row matrix in place into L = chol(w) and Y = L⁻¹,
// wrapping a breakdown in ErrIllConditioned. With shifted, it first adds
// the Fukaya et al. shift s·I, s = 11·(m·n + n·(n+1))·ε·‖A‖₂², bounding
// ‖A‖₂² ≤ ‖A‖_F² = trace(w): the shift only needs an upper bound, and
// the trace is O(n) local work on a Gram matrix every caller already
// holds.
func cholShifted(w *lin.Matrix, m int, shifted bool) (l, y *lin.Matrix, err error) {
	n := w.Rows
	if shifted {
		norm2sq := 0.0
		for i := 0; i < n; i++ {
			if d := w.At(i, i); d > 0 {
				norm2sq += d
			}
		}
		s := 11 * float64(m*n+n*(n+1)) * lin.Eps * norm2sq
		for i := 0; i < n; i++ {
			w.Set(i, i, w.At(i, i)+s)
		}
	}
	l, y, err = lin.CholInv(w)
	switch {
	case err == nil:
		return l, y, nil
	case shifted:
		return nil, nil, fmt.Errorf("%w: shifted Gram still indefinite: %w", ErrIllConditioned, err)
	default:
		return nil, nil, fmt.Errorf("%w: %w", ErrIllConditioned, err)
	}
}

// ShiftedCQR3 is the unconditionally stable three-pass variant the
// paper's §V highlights as future work: one shifted CholeskyQR pass to
// tame the conditioning, then CholeskyQR2 on the result. It succeeds for
// κ(A) up to ~1/ε where plain CQR2 breaks down at ~1/√ε.
func ShiftedCQR3(a *lin.Matrix, workers int) (q, r *lin.Matrix, err error) {
	q1, r1, err := ShiftedCholeskyQR(a, workers)
	if err != nil {
		return nil, nil, err
	}
	q, r23, err := CholeskyQR2(q1, workers)
	if err != nil {
		return nil, nil, err
	}
	r = r23.Clone()
	lin.Trmm(lin.Right, lin.Upper, false, r1, r) // R = (R3·R2)·R1
	return q, r, nil
}

// CanCQR2Handle reports the §I stability criterion: CholeskyQR2 delivers
// Householder-level orthogonality when κ(A) = O(1/√ε).
func CanCQR2Handle(cond float64) bool {
	return cond < 1/math.Sqrt(lin.Eps)/8
}
