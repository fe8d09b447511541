package core

import (
	"fmt"

	"cacqr/internal/dist"
	"cacqr/internal/lin"
	"cacqr/internal/obs"
	"cacqr/internal/transport"
)

// OneDCQR is the existing parallel 1D CholeskyQR (Algorithm 6) over a 1D
// grid of P processors: each rank owns an m/P × n row block of A.
//
//	line 1: X = Syrk(Π⟨A⟩)           (local, (m/P)·n² flops)
//	line 2: Z = Allreduce(X, Π)      (n² words)
//	line 3: Rᵀ, R⁻ᵀ = CholInv(Z)     (redundant, n³ flops)
//	line 4: Π⟨Q⟩ = MM(Π⟨A⟩, R⁻¹)     (local, 2(m/P)·n² flops)
//
// Returns this rank's Q block and the replicated n × n R.
//
// workers bounds the goroutines the rank's local level-3 kernels may
// use (≤ 1 = serial, the right default for simulated grids). Results
// are identical for any value.
func OneDCQR(comm transport.Comm, aLocal *lin.Matrix, m, n, workers int) (qLocal, r *lin.Matrix, err error) {
	return oneDCholeskyQR(comm, aLocal, m, n, workers, false)
}

// oneDCholeskyQR is the shared body of the plain and shifted 1D
// CholeskyQR passes. The only difference is the shifted variant's
// diagonal shift s·I applied to the replicated Gram matrix before the
// Cholesky factorization (Fukaya et al., the paper's reference [3]; see
// cholShifted): its trace bound reads the already-Allreduced Gram
// matrix — no extra communication and only O(n) uncharged local work.
// Keeping one body keeps the cost charging in one place, so the
// "measured γ == predicted γ" contract can never diverge between the
// two variants.
func oneDCholeskyQR(comm transport.Comm, aLocal *lin.Matrix, m, n, workers int, shifted bool) (qLocal, r *lin.Matrix, err error) {
	if workers < 1 {
		workers = 1
	}
	p := comm.Proc()
	np := comm.Size()
	if m%np != 0 {
		return nil, nil, fmt.Errorf("core: m=%d not divisible by P=%d", m, np)
	}
	if aLocal.Rows != m/np || aLocal.Cols != n {
		return nil, nil, fmt.Errorf("core: local block %dx%d, want %dx%d", aLocal.Rows, aLocal.Cols, m/np, n)
	}

	// Stage spans mirror the paper's per-line cost decomposition; a rank
	// without a trace span gets a nil *Stages and every call no-ops.
	stg := obs.StagesOf(p)
	defer stg.Done()

	stg.Enter("gram-syrk")
	x := lin.SyrkNewParallel(workers, aLocal)
	if err := p.Compute(lin.SyrkFlops(aLocal.Rows, n)); err != nil {
		return nil, nil, err
	}

	stg.Enter("gram-allreduce")
	zFlat, err := comm.Allreduce(dist.Flatten(x))
	if err != nil {
		return nil, nil, err
	}
	z, err := dist.Unflatten(n, n, zFlat)
	if err != nil {
		return nil, nil, err
	}

	stg.Enter("cholesky")
	l, y, err := cholShifted(z, m, shifted)
	if err != nil {
		return nil, nil, err
	}
	if err := p.Compute(lin.CholFlops(n) + lin.TriInvFlops(n)); err != nil {
		return nil, nil, err
	}

	// Q = A·(L⁻¹)ᵀ = A·R⁻¹, charged at the TRMM rate (R⁻¹ triangular),
	// matching the paper's 4mn² + (5/3)n³ critical-path count.
	stg.Enter("q-update")
	qLocal = lin.NewMatrix(aLocal.Rows, n)
	lin.GemmParallel(workers, false, true, 1, aLocal, y, 0, qLocal)
	if err := p.Compute(lin.TrsmFlops(aLocal.Rows, n)); err != nil {
		return nil, nil, err
	}
	return qLocal, l.T(), nil
}

// OneDCQR2 is Algorithm 7: two OneDCQR passes and a local triangular
// product R = R₂·R₁ ((1/3)n³ flops).
func OneDCQR2(comm transport.Comm, aLocal *lin.Matrix, m, n, workers int) (qLocal, r *lin.Matrix, err error) {
	q1, r1, err := OneDCQR(comm, aLocal, m, n, workers)
	if err != nil {
		return nil, nil, err
	}
	q, r2, err := OneDCQR(comm, q1, m, n, workers)
	if err != nil {
		return nil, nil, err
	}
	r, err = foldR(comm, r2, r1)
	if err != nil {
		return nil, nil, err
	}
	return q, r, nil
}

// foldR computes the replicated triangular product R = R₂·R₁ that
// closes every multi-pass CholeskyQR variant, charging the (1/3)n³
// flops the paper counts for it.
func foldR(comm transport.Comm, r2, r1 *lin.Matrix) (*lin.Matrix, error) {
	r := r2.Clone()
	lin.Trmm(lin.Right, lin.Upper, false, r1, r)
	if err := comm.Proc().Compute(lin.TriInvFlops(r1.Rows)); err != nil { // (1/3)n³
		return nil, err
	}
	return r, nil
}
