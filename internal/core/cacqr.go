package core

import (
	"errors"
	"fmt"

	"cacqr/internal/cfr3d"
	"cacqr/internal/dist"
	"cacqr/internal/grid"
	"cacqr/internal/lin"
	"cacqr/internal/mm3d"
	"cacqr/internal/obs"
)

// Params tune the CA-CQR2 algorithm the way the paper's experiment
// legends do.
type Params struct {
	// InverseDepth is the last recursive level at which CFR3D forms the
	// explicit triangular inverse (legend parameter InverseDepth). 0
	// computes the full inverse; k > 0 leaves the top k levels to a
	// blocked substitution in the Q = A·R⁻¹ step, saving flops at the
	// price of extra MM3D synchronizations.
	InverseDepth int
	// BaseSize is CFR3D's n_o (0 = the bandwidth-optimal default).
	BaseSize int
	// Workers bounds the goroutines each rank's local level-3 kernels may
	// use (≤ 1 = serial). Simulated grids already run one goroutine per
	// rank, so the default of 1 avoids oversubscribing the host; raise it
	// when ranks are few and matrices large. Results are identical for
	// any value.
	Workers int
}

// localWorkers resolves the Params knob for per-rank kernels: anything
// below 1 means serial.
func (p Params) localWorkers() int {
	if p.Workers < 1 {
		return 1
	}
	return p.Workers
}

// CACQR runs Algorithm 8 over a c × d × c grid: one CholeskyQR pass whose
// Gram-matrix work runs on d/c independent subcubes.
//
// aLocal is this rank's m/d × n/c block of A (rows cyclic over y, columns
// cyclic over x), replicated on every depth slice z. The returned Q block
// has the same distribution as A; the returned R block is the n × n
// upper factor distributed cyclically over the rank's subcube slice
// (rows over cube-y, columns over x) and replicated across depth and
// across subcubes.
func CACQR(g *grid.Grid, aLocal *lin.Matrix, m, n int, prm Params) (qLocal, rLocal *lin.Matrix, err error) {
	if err := checkShapes(g, aLocal, m, n); err != nil {
		return nil, nil, err
	}
	p := g.World.Proc()
	c, d := g.C, g.D

	// Line 1: Bcast A along Π[:, y, z] from root x = z; W is the block
	// of the processor column x = z. Each step runs under a simmpi
	// phase labeled with its Table V line, so measured per-line costs
	// can be checked against the model's decomposition — and, when this
	// rank carries a trace span, under a stage span with the same label.
	stg := obs.StagesOf(p)
	defer stg.Done()
	stg.Enter("1:Bcast(A)")
	defer p.SetPhase(p.SetPhase("1:Bcast(A)"))
	var aRoot []float64
	if g.X == g.Z {
		aRoot = dist.Flatten(aLocal)
	}
	wFlat, err := g.XComm.Bcast(g.Z, aRoot)
	if err != nil {
		return nil, nil, err
	}
	w, err := dist.Unflatten(m/d, n/c, wFlat)
	if err != nil {
		return nil, nil, err
	}

	// Line 2: X = Wᵀ·A. Charged at the SYRK rate (m/d)·(n/c)²: the
	// paper's 4mn² + (5/3)n³ critical path counts the Gram-matrix work
	// symmetrically, as its implementation's BLAS calls do.
	stg.Enter("2:MM(WtA)")
	p.SetPhase("2:MM(WtA)")
	x := lin.NewMatrix(n/c, n/c)
	lin.GemmParallel(prm.localWorkers(), true, false, 1, w, aLocal, 0, x)
	if err := p.Compute(lin.SyrkFlops(m/d, n/c)); err != nil {
		return nil, nil, err
	}

	// Line 3: Reduce within the contiguous y-group onto root offset z.
	stg.Enter("3:Reduce")
	p.SetPhase("3:Reduce")
	xFlat := dist.Flatten(x)
	yFlat, err := g.YGroup.Reduce(g.Z, xFlat)
	if err != nil {
		return nil, nil, err
	}

	// Line 4: Allreduce across the strided y-groups. Only the groups
	// whose offset equals z hold partial sums; the rest contribute
	// zeros and their result is discarded by the depth broadcast.
	stg.Enter("4:Allreduce")
	p.SetPhase("4:Allreduce")
	contrib := yFlat
	if contrib == nil {
		contrib = make([]float64, len(xFlat))
	}
	zFlat, err := g.YStride.Allreduce(contrib)
	if err != nil {
		return nil, nil, err
	}

	// Line 5: Bcast along depth from root z = y mod c, giving every
	// slice of every subcube the cyclic block of Z = AᵀA.
	stg.Enter("5:Bcast(Z,depth)")
	p.SetPhase("5:Bcast(Z,depth)")
	var zRoot []float64
	if g.Z == g.Y%c {
		zRoot = zFlat
	}
	zOut, err := g.ZComm.Bcast(g.Y%c, zRoot)
	if err != nil {
		return nil, nil, err
	}
	zBlock, err := dist.Unflatten(n/c, n/c, zOut)
	if err != nil {
		return nil, nil, err
	}

	// Lines 6–7: CFR3D on the subcube: Z = Rᵀ·R with L = Rᵀ, Y = L⁻¹.
	stg.Enter("7:CFR3D")
	p.SetPhase("7:CFR3D")
	res, err := cfr3d.Factor(g.Cube, zBlock, n, cfr3d.Options{
		BaseSize: prm.BaseSize, InverseDepth: prm.InverseDepth, Workers: prm.localWorkers(),
	})
	if errors.Is(err, lin.ErrNotPositiveDefinite) {
		// The same Gram breakdown the 1D and sequential passes report.
		return nil, nil, fmt.Errorf("%w: %w", ErrIllConditioned, err)
	}
	if err != nil {
		return nil, nil, err
	}

	// Line 8: Q = A·R⁻¹ over the subcube (blocked substitution when the
	// top inverse levels were skipped), plus the transpose that yields
	// the caller's R = Lᵀ block.
	stg.Enter("8:MM3D(Q)+Transp")
	p.SetPhase("8:MM3D(Q)+Transp")
	qLocal, err = applyRInv(g.Cube, aLocal, res.L, res.Y, prm.InverseDepth, prm.localWorkers())
	if err != nil {
		return nil, nil, err
	}
	rLocal, err = mm3d.Transpose(g.Cube, res.L)
	if err != nil {
		return nil, nil, err
	}
	return qLocal, rLocal, nil
}

// CACQR2 runs Algorithm 9: two CA-CQR passes and R = R₂·R₁ by MM3D over
// the subcube.
func CACQR2(g *grid.Grid, aLocal *lin.Matrix, m, n int, prm Params) (qLocal, rLocal *lin.Matrix, err error) {
	q1, r1, err := CACQR(g, aLocal, m, n, prm)
	if err != nil {
		return nil, nil, err
	}
	q, r2, err := CACQR(g, q1, m, n, prm)
	if err != nil {
		return nil, nil, err
	}
	r, err := mm3d.MultiplyTri(g.Cube, r2, r1, prm.localWorkers()) // triangular × triangular
	if err != nil {
		return nil, nil, err
	}
	return q, r, nil
}

// applyRInv computes Q = A·R⁻¹ where R = Lᵀ and y holds L⁻¹ complete
// below invDepth recursion levels. At invDepth = 0 this is a single MM3D
// with R⁻¹ = Yᵀ (Algorithm 8 line 8). For invDepth > 0 it performs the
// §III-A blocked substitution: split R = [R11 R12; 0 R22], solve
// Q1 = A1·R11⁻¹, update A2' = A2 − Q1·R12, solve Q2 = A2'·R22⁻¹.
func applyRInv(cb *grid.Cube, aLocal, l, y *lin.Matrix, invDepth, workers int) (*lin.Matrix, error) {
	if invDepth <= 0 || l.Rows < 2 || l.Rows%2 != 0 {
		rinv, err := mm3d.Transpose(cb, y)
		if err != nil {
			return nil, err
		}
		return mm3d.MultiplyTri(cb, aLocal, rinv, workers) // R⁻¹ is triangular
	}
	p := cb.Comm.Proc()
	half := l.Rows / 2
	l11 := l.View(0, 0, half, half).Clone()
	l21 := l.View(half, 0, half, half).Clone()
	l22 := l.View(half, half, half, half).Clone()
	y11 := y.View(0, 0, half, half).Clone()
	y22 := y.View(half, half, half, half).Clone()

	ha := aLocal.Cols / 2
	a1 := aLocal.View(0, 0, aLocal.Rows, ha).Clone()
	a2 := aLocal.View(0, ha, aLocal.Rows, ha).Clone()

	q1, err := applyRInv(cb, a1, l11, y11, invDepth-1, workers)
	if err != nil {
		return nil, err
	}

	// R12 = L21ᵀ; A2' = A2 − Q1·R12.
	r12, err := mm3d.Transpose(cb, l21)
	if err != nil {
		return nil, err
	}
	t, err := mm3d.Multiply(cb, q1, r12, workers)
	if err != nil {
		return nil, err
	}
	a2.Sub(t)
	if err := p.Compute(lin.AxpyFlops(a2.Rows, a2.Cols)); err != nil {
		return nil, err
	}

	q2, err := applyRInv(cb, a2, l22, y22, invDepth-1, workers)
	if err != nil {
		return nil, err
	}

	out := lin.NewMatrix(aLocal.Rows, aLocal.Cols)
	out.View(0, 0, out.Rows, ha).CopyFrom(q1)
	out.View(0, ha, out.Rows, ha).CopyFrom(q2)
	return out, nil
}

func checkShapes(g *grid.Grid, aLocal *lin.Matrix, m, n int) error {
	if g == nil {
		return fmt.Errorf("core: rank outside the processor grid")
	}
	if m < n {
		return fmt.Errorf("core: CA-CQR requires m ≥ n, got %dx%d", m, n)
	}
	if m%g.D != 0 || n%g.C != 0 {
		return fmt.Errorf("core: %dx%d matrix not divisible by %dx%d grid blocks", m, n, g.D, g.C)
	}
	if aLocal.Rows != m/g.D || aLocal.Cols != n/g.C {
		return fmt.Errorf("core: local block %dx%d, want %dx%d", aLocal.Rows, aLocal.Cols, m/g.D, n/g.C)
	}
	return nil
}
