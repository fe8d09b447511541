package cacqr

// The one execution path. Every in-core entry point — the Factorize*
// drivers, FactorizePlan, AutoFactorize, SolveLeastSquares and the
// Server's Submit* calls — describes its run as a plan.Plan row and
// hands it to execute, which checks the row against the matrix before
// any rank starts, then runs it streamed (stream-tsqr) or through
// runDistributed on the transport the Options select: the simulated
// goroutine runtime (default — exact α-β-γ accounting) or real OS
// worker processes over TCP (internal/transport/tcpnet — measured
// traffic and wall-clock), whose job payload carries the plan row
// itself. jobBody is the single per-rank algorithm switch behind both.

import (
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"math"
	"net"
	"time"

	"cacqr/internal/core"
	"cacqr/internal/dist"
	"cacqr/internal/grid"
	"cacqr/internal/lin"
	"cacqr/internal/obs"
	"cacqr/internal/pgeqrf"
	"cacqr/internal/plan"
	"cacqr/internal/simmpi"
	"cacqr/internal/transport"
	"cacqr/internal/transport/tcpnet"
	"cacqr/internal/tsqr"
)

// Transport selects how the distributed entry points execute. The zero
// value of Options (a nil *Transport) means the simulated runtime.
type Transport struct {
	tcp     bool
	workers []string
}

// SimTransport runs the job on the simulated goroutine runtime — one
// goroutine per rank, exact α-β-γ cost accounting. This is the default.
func SimTransport() *Transport { return &Transport{} }

// TCPTransport runs the job across real OS processes: the calling
// process acts as rank 0 and each worker address (a `cacqrd worker`
// listener, or any process inside ServeWorker) hosts one further rank.
// A job on np ranks uses the first np−1 workers; fewer available
// workers than ranks is an error. Costs are measured, not modeled:
// Msgs/Words count actual traffic, Bytes counts raw wire bytes.
func TCPTransport(workers ...string) *Transport {
	return &Transport{tcp: true, workers: append([]string(nil), workers...)}
}

func (t *Transport) isTCP() bool { return t != nil && t.tcp }

// ErrNonFinite reports a NaN or ±Inf: in the input matrix, where it is
// refused before any rank starts, or in a computed R, where the input's
// scale overflowed the factorization. Either way no factors are
// returned.
var ErrNonFinite = errors.New("cacqr: non-finite values")

// checkInput refuses a matrix whose data does not match its shape or
// holds a NaN or ±Inf entry — the up-front check behind every in-core
// entry point, run before the κ estimate and before any rank starts.
func checkInput(a *Dense) error {
	if a == nil || a.Rows < 0 || a.Cols < 0 || len(a.Data) != a.Rows*a.Cols {
		return fmt.Errorf("cacqr: malformed input matrix")
	}
	if i := firstNonFinite(a.Data); i >= 0 {
		return fmt.Errorf("%w: A(%d,%d) = %g", ErrNonFinite, i/a.Cols, i%a.Cols, a.Data[i])
	}
	return nil
}

// checkR refuses a factorization whose R is not finite — an n² scan
// before a run reports success. The input was checked finite, so its
// scale overflowed the Gram matrix or a reflector norm.
func checkR(r []float64, v plan.Variant) error {
	if firstNonFinite(r) >= 0 {
		return fmt.Errorf("%w: %s computed a non-finite R", ErrNonFinite, v)
	}
	return nil
}

// firstNonFinite returns the index of the first NaN or ±Inf in xs, or
// -1. x−x is 0 for every finite x and NaN otherwise.
func firstNonFinite(xs []float64) int {
	for i, x := range xs {
		if math.IsNaN(x - x) {
			return i
		}
	}
	return -1
}

// checkPlan checks plan row p against an m×n input and returns it with
// Procs (and the 1D family's C, D) filled in. It is the one shape check
// behind every in-core entry point and runs before any rank starts, so
// an infeasible row — a hand-built one, or an explicit grid that does
// not fit the matrix — fails with a cacqr: error instead of inside the
// ranks.
func checkPlan(p Plan, m, n int) (Plan, error) {
	if n < 1 || m < n {
		return Plan{}, fmt.Errorf("cacqr: %s needs a tall matrix (m ≥ n ≥ 1), got %dx%d", p.Variant, m, n)
	}
	switch p.Variant {
	case plan.Sequential, plan.StreamTSQR:
		p.C, p.D, p.Procs = 1, 1, 1
		if p.Variant == plan.StreamTSQR && (p.PanelWidth < 0 || resolvePanelRows(p.PanelWidth, m, n) < n) {
			return Plan{}, fmt.Errorf("cacqr: stream panel rows %d for a %dx%d matrix (need n ≤ rows)", p.PanelWidth, m, n)
		}
	case plan.OneD, plan.ShiftedCQR3, plan.TSQR:
		if p.Procs < 1 {
			return Plan{}, fmt.Errorf("cacqr: invalid processor count %d", p.Procs)
		}
		if m%p.Procs != 0 {
			return Plan{}, fmt.Errorf("cacqr: m=%d not divisible by P=%d", m, p.Procs)
		}
		p.C, p.D = 1, p.Procs
		if p.Variant != plan.TSQR {
			break
		}
		rows, b := m/p.Procs, p.PanelWidth
		switch {
		case p.Procs&(p.Procs-1) != 0:
			return Plan{}, fmt.Errorf("cacqr: TSQR needs a power-of-two P, got %d", p.Procs)
		case b < 0 || b > 0 && (n%b != 0 || rows < b):
			return Plan{}, fmt.Errorf("cacqr: TSQR panel width %d needs b | n and b ≤ m/P (n=%d, m/P=%d)", b, n, rows)
		case b == 0 && rows < n:
			return Plan{}, fmt.Errorf("cacqr: TSQR local block %dx%d is not tall (need m/P ≥ n, or a panel width)", rows, n)
		}
	case plan.CACQR2, plan.PanelCACQR2:
		spec := GridSpec{C: p.C, D: p.D}
		if err := spec.validate(); err != nil {
			return Plan{}, err
		}
		if m%p.D != 0 || n%p.C != 0 {
			return Plan{}, fmt.Errorf("cacqr: %dx%d matrix not divisible by the %dx%dx%d grid (need d | m, c | n)",
				m, n, p.C, p.D, p.C)
		}
		if b := p.PanelWidth; p.Variant == plan.PanelCACQR2 && (b < 1 || b%p.C != 0 || n%b != 0) {
			return Plan{}, fmt.Errorf("cacqr: panel width %d needs c | b and b | n (c=%d, n=%d)", b, p.C, n)
		}
		p.Procs = spec.Procs()
	case plan.PGEQRF:
		pr, pc, nb := p.D, p.C, p.PanelWidth
		switch {
		case pr < 1 || pc < 1:
			return Plan{}, fmt.Errorf("cacqr: invalid process grid %dx%d", pr, pc)
		case m%pr != 0:
			return Plan{}, fmt.Errorf("cacqr: m=%d not divisible by pr=%d", m, pr)
		case nb < 1 || n%nb != 0:
			return Plan{}, fmt.Errorf("cacqr: PGEQRF block size %d does not divide n=%d", nb, n)
		}
		p.Procs = pr * pc
	default:
		return Plan{}, fmt.Errorf("cacqr: plan variant %q is not executable", p.Variant)
	}
	return p, nil
}

// execute runs plan row p on a: the one execution path behind every
// in-core entry point — the Factorize* drivers, FactorizePlan,
// AutoFactorize, both SolveLeastSquares modes and every Server.Submit*.
// It checks the options, the row and the input before any rank starts,
// then runs the row streamed (stream-tsqr) or on the transport the
// options select, and refuses a non-finite R.
func execute(a *Dense, p Plan, opts Options) (*Result, error) {
	if err := checkOptions(opts); err != nil {
		return nil, err
	}
	if err := checkInput(a); err != nil {
		return nil, err
	}
	p, err := checkPlan(p, a.Rows, a.Cols)
	if err != nil {
		return nil, err
	}
	var res *Result
	if p.Variant == plan.StreamTSQR {
		// Out-of-core run of an in-memory matrix: peak additional memory
		// stays at one panel plus the R-chain, so the budget the planner
		// honored is respected by the execution too.
		opts.PanelRows = p.PanelWidth
		res, err = FactorizeStreaming(SourceFromDense(a), SinkToDense(), opts)
	} else {
		res, err = runDistributed(p, a.toLin(), opts)
	}
	if err == nil {
		err = checkR(res.R.Data, p.Variant)
	}
	if err != nil {
		return nil, err
	}
	return res, nil
}

// isGrid reports whether v runs on the c×d×c grid: those variants
// scatter their input through the transport from rank 0.
func isGrid(v plan.Variant) bool { return v == plan.CACQR2 || v == plan.PanelCACQR2 }

// localInput stages rank's input block for the m×n plan row p. The grid
// variants return nil: they scatter from rank 0 through the transport
// itself, exactly as a cluster would load it.
func localInput(p Plan, global *lin.Matrix, rank int) (*lin.Matrix, error) {
	switch {
	case isGrid(p.Variant):
		return nil, nil
	case p.Variant == plan.PGEQRF:
		return pgeqrf.LocalBlock(global, rank, p.D, p.C, p.PanelWidth)
	default:
		rows := global.Rows / p.Procs
		return global.View(rank*rows, 0, rows, global.Cols).Clone(), nil
	}
}

// jobPayload is the gob blob shipped to a TCP worker: the plan row
// itself, the shape and kernel knobs, and the rank's staged input block
// (absent for the grid variants).
type jobPayload struct {
	Plan       plan.Plan
	M, N       int
	Params     core.Params
	Rows, Cols int
	Data       []float64
}

func encodeJobPayload(pl jobPayload, local *lin.Matrix) ([]byte, error) {
	if local != nil {
		pl.Rows, pl.Cols = local.Rows, local.Cols
		pl.Data = dist.Flatten(local)
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(pl); err != nil {
		return nil, fmt.Errorf("cacqr: encoding worker payload: %w", err)
	}
	return buf.Bytes(), nil
}

func decodeJobPayload(payload []byte) (jobPayload, *lin.Matrix, error) {
	var pl jobPayload
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&pl); err != nil {
		return jobPayload{}, nil, fmt.Errorf("cacqr: bad worker payload: %w", err)
	}
	var local *lin.Matrix
	if pl.Rows != 0 || pl.Cols != 0 {
		var err error
		local, err = dist.Unflatten(pl.Rows, pl.Cols, pl.Data)
		if err != nil {
			return jobPayload{}, nil, fmt.Errorf("cacqr: bad worker payload: %w", err)
		}
	}
	return pl, local, nil
}

// jobBody returns one rank's share of the job — the single algorithm
// switch behind every execution context: each simulated rank, the TCP
// coordinator (rank 0), and each TCP worker.
//
// local is the rank's staged input block (nil to derive it from
// globalAtRoot, or for the grid variants, which scatter through the
// transport). globalAtRoot is the full matrix where present — every
// simulated rank shares the closure view, the TCP coordinator holds its
// own; TCP workers have neither. sink, when non-nil, receives the
// gathered global factors on rank 0.
func jobBody(job jobPayload, local *lin.Matrix, globalAtRoot *lin.Matrix, sink func(q, r *lin.Matrix)) func(p transport.Proc) error {
	pl, m, n, prm := job.Plan, job.M, job.N, job.Params
	return func(p transport.Proc) error {
		if local == nil && !isGrid(pl.Variant) {
			var err error
			local, err = localInput(pl, globalAtRoot, p.Rank())
			if err != nil {
				return err
			}
		}
		emit := func(q, r *lin.Matrix) {
			if sink != nil && p.Rank() == 0 {
				sink(q, r)
			}
		}
		switch pl.Variant {
		case plan.CACQR2, plan.PanelCACQR2:
			g, err := grid.New(p.World(), pl.C, pl.D)
			if err != nil {
				return err
			}
			// Scatter from the grid's rank 0 across slice z=0, then
			// replicate across depth: the faithful cluster loading path.
			var rootGlobal *lin.Matrix
			if g.Slice.Index() == 0 && g.Z == 0 {
				rootGlobal = globalAtRoot
			}
			var ad *dist.Matrix
			if g.Z == 0 {
				ad, err = dist.Scatter(g.Slice, 0, rootGlobal, m, n, pl.D, pl.C)
				if err != nil {
					return err
				}
			}
			var flat []float64
			if g.Z == 0 {
				flat = dist.Flatten(ad.Local)
			}
			flat, err = g.ZComm.Bcast(0, flat)
			if err != nil {
				return err
			}
			blk, err := dist.Unflatten(m/pl.D, n/pl.C, flat)
			if err != nil {
				return err
			}
			var qL, rL *lin.Matrix
			if pl.Variant == plan.PanelCACQR2 {
				qL, rL, err = core.PanelCACQR2(g, blk, m, n, pl.PanelWidth, prm)
			} else {
				qL, rL, err = core.CACQR2(g, blk, m, n, prm)
			}
			if err != nil {
				return err
			}
			qG, err := dist.Gather(g.Slice, qL, m, n, pl.D, pl.C)
			if err != nil {
				return err
			}
			rG, err := dist.Gather(g.Cube.Slice, rL, n, n, pl.C, pl.C)
			if err != nil {
				return err
			}
			emit(qG, rG)
			return nil

		case plan.Sequential, plan.OneD, plan.ShiftedCQR3, plan.TSQR:
			var qL, rL *lin.Matrix
			var err error
			switch {
			case pl.Variant == plan.ShiftedCQR3:
				qL, rL, err = core.OneDShiftedCQR3(p.World(), local, m, n, prm.Workers)
			case pl.Variant != plan.TSQR:
				qL, rL, err = core.OneDCQR2(p.World(), local, m, n, prm.Workers)
			case pl.PanelWidth > 0:
				qL, rL, err = tsqr.BlockedFactor(p.World(), local, m, n, pl.PanelWidth, prm.Workers)
			default:
				qL, rL, err = tsqr.Factor(p.World(), local, m, n, prm.Workers)
			}
			if err != nil {
				return err
			}
			qG, err := allgatherQ(p, qL, m, n)
			if err != nil {
				return err
			}
			emit(qG, rL)
			return nil

		case plan.PGEQRF:
			pr := pl.D
			g, err := pgeqrf.NewGrid(p.World(), pr, pl.C)
			if err != nil {
				return err
			}
			am, err := pgeqrf.NewMatrixLocal(g, local, m, n, pl.PanelWidth)
			if err != nil {
				return err
			}
			f, err := pgeqrf.Factor(am)
			if err != nil {
				return err
			}
			rG, err := f.GatherR()
			if err != nil {
				return err
			}
			// Explicit Q = Q·[Iₙ; 0]: apply the reflectors to this rank's
			// block of the identity's first n columns (rows are cyclic over
			// the pr process rows; process columns compute redundantly).
			mloc := am.Local.Rows
			e := lin.NewMatrix(mloc, n)
			for li := 0; li < mloc; li++ {
				if gi := li*pr + g.Row; gi < n {
					e.Set(li, gi, 1)
				}
			}
			qL, err := f.ApplyQ(e)
			if err != nil {
				return err
			}
			// Assemble the global Q: process column 0 contributes its rows,
			// everyone else zeros, and a world Allreduce replicates the sum
			// (the same output-path pattern as GatherR).
			contrib := lin.NewMatrix(m, n)
			if g.Col == 0 {
				for li := 0; li < mloc; li++ {
					gi := li*pr + g.Row
					for j := 0; j < n; j++ {
						contrib.Set(gi, j, qL.At(li, j))
					}
				}
			}
			qFlat, err := g.World.Allreduce(dist.Flatten(contrib))
			if err != nil {
				return err
			}
			qG, err := dist.Unflatten(m, n, qFlat)
			if err != nil {
				return err
			}
			if p.Rank() == 0 {
				lin.NormalizeSigns(qG, rG)
			}
			emit(qG, rG)
			return nil
		}
		return fmt.Errorf("cacqr: plan variant %q does not run on ranks", pl.Variant)
	}
}

// allgatherQ assembles the global m×n Q from each rank's row block over
// the 1D world communicator — the shared gather tail of the 1D
// execution paths (Factorize1D, FactorizeTSQR).
func allgatherQ(p transport.Proc, qL *lin.Matrix, m, n int) (*lin.Matrix, error) {
	flat, err := p.World().Allgather(dist.Flatten(qL))
	if err != nil {
		return nil, err
	}
	return dist.Unflatten(m, n, flat)
}

// runTimeout resolves the Options.Timeout default shared by both
// transports.
func runTimeout(opts Options) time.Duration {
	if opts.Timeout == 0 {
		return 10 * time.Minute
	}
	return opts.Timeout
}

// runDistributed runs the checked plan row p on the transport Options
// select and assembles the Result.
func runDistributed(p Plan, global *lin.Matrix, opts Options) (*Result, error) {
	job := jobPayload{
		Plan: p, M: global.Rows, N: global.Cols,
		Params: core.Params{InverseDepth: opts.InverseDepth, BaseSize: opts.BaseSize, Workers: opts.Workers},
	}
	var q, r *lin.Matrix
	sink := func(qG, rG *lin.Matrix) { q, r = qG, rG }

	var st *transport.Stats
	var err error
	if opts.Transport.isTCP() {
		st, err = runTCP(job, global, opts, sink)
	} else {
		st, err = runSim(job, global, opts, sink)
	}
	if err != nil {
		return nil, err
	}
	return &Result{
		Q: fromLin(q),
		R: fromLin(r),
		Stats: CostStats{
			Msgs: st.MaxMsgs, Words: st.MaxWords, Flops: st.MaxFlops,
			Bytes: st.MaxBytes, Time: st.Time,
		},
	}, nil
}

// startRunSpans opens the trace structure of one distributed run under
// the span carried by opts.ctx: a "run" child plus one kind-"rank" span
// per live local rank (liveRanks of them; TCP workers are remote and
// get theirs synthesized from counters post-run). When the request is
// untraced everything here is nil and the run pays nil checks only.
func startRunSpans(opts Options, p Plan, transportName string, liveRanks int) (*obs.Span, []*obs.Span) {
	spans := make([]*obs.Span, p.Procs)
	run := obs.FromContext(opts.ctx).Child("run")
	run.SetStr("transport", transportName)
	run.SetStr("variant", string(p.Variant))
	run.SetInt("procs", int64(p.Procs))
	for i := 0; i < liveRanks && i < len(spans); i++ {
		spans[i] = run.Rank(fmt.Sprintf("rank-%d", i))
	}
	return run, spans
}

// finishRunSpans closes the run's spans, attributing each rank its
// measured transport counters — msgs/words/flops in the paper's α-β-γ
// units, wire bytes on real backends — and the run its totals, so a
// trace's per-collective byte counts can be checked against
// transport.Counters.
func finishRunSpans(run *obs.Span, spans []*obs.Span, st *transport.Stats) {
	if st != nil {
		for i := range spans {
			// A nil slot is not "untraced" here but "remote rank": TCP
			// workers never produced a local span, so synthesize one from
			// the counters the coordinator collected (zero duration —
			// remote stage timings are not shipped back).
			//lint:ignore obssafety nil marks a remote rank needing a synthesized span, not the untraced path
			if spans[i] == nil && i < len(st.PerRank) {
				spans[i] = run.Rank(fmt.Sprintf("rank-%d", i))
			}
			if i < len(st.PerRank) {
				c := st.PerRank[i]
				spans[i].SetInt("msgs", c.Msgs)
				spans[i].SetInt("words", c.Words)
				spans[i].SetInt("flops", c.Flops)
				spans[i].SetInt("bytes", c.Bytes)
				spans[i].SetFloat("time", c.Time)
			}
		}
		run.SetInt("total_msgs", st.TotalMsgs)
		run.SetInt("total_words", st.TotalWords)
		run.SetInt("total_bytes", st.TotalBytes)
	}
	for _, sp := range spans {
		sp.End()
	}
	run.End()
}

// runSim executes job on the simulated runtime. A context on the
// Options adds cancellation alongside the watchdog timeout; a span on
// it records the run, with every rank wrapped by transport.Traced so
// collectives and kernel stages land under per-rank spans.
func runSim(job jobPayload, global *lin.Matrix, opts Options, sink func(q, r *lin.Matrix)) (*transport.Stats, error) {
	sopts := simmpi.Options{Timeout: runTimeout(opts)}
	if opts.ctx != nil {
		sopts.Cancel = opts.ctx.Done()
	}
	run, rankSpans := startRunSpans(opts, job.Plan, "sim", job.Plan.Procs)
	st, err := simmpi.RunWithOptions(job.Plan.Procs, sopts, func(p *simmpi.Proc) error {
		return jobBody(job, nil, global, sink)(transport.Traced(p, rankSpans[p.Rank()]))
	})
	finishRunSpans(run, rankSpans, st)
	if err != nil && errors.Is(err, simmpi.ErrCanceled) && opts.ctx != nil && opts.ctx.Err() != nil {
		err = opts.ctx.Err()
	}
	return st, err
}

// runTCP executes job across real worker processes: this process is
// rank 0, the first np−1 configured workers host ranks 1..np−1. Input
// blocks ship inside each worker's job payload, out of band of the
// charged transport operations.
func runTCP(job jobPayload, global *lin.Matrix, opts Options, sink func(q, r *lin.Matrix)) (*transport.Stats, error) {
	np := job.Plan.Procs
	workers := opts.Transport.workers
	if len(workers) < np-1 {
		return nil, fmt.Errorf("cacqr: job needs %d ranks but the TCP transport has a coordinator plus only %d workers", np, len(workers))
	}
	payloads := make([][]byte, np)
	for rank := 1; rank < np; rank++ {
		local, err := localInput(job.Plan, global, rank)
		if err != nil {
			return nil, err
		}
		payloads[rank], err = encodeJobPayload(job, local)
		if err != nil {
			return nil, err
		}
	}
	local0, err := localInput(job.Plan, global, 0)
	if err != nil {
		return nil, err
	}
	parent := opts.ctx
	if parent == nil {
		parent = context.Background()
	}
	ctx, cancel := context.WithTimeout(parent, runTimeout(opts))
	defer cancel()
	// Only rank 0 runs in this process, so only it gets a live span;
	// worker ranks get theirs synthesized from the counters the
	// coordinator collects over the control connections.
	run, rankSpans := startRunSpans(opts, job.Plan, "tcp", 1)
	coord := &tcpnet.Coordinator{Workers: workers[:np-1]}
	st, err := coord.Run(ctx,
		func(rank int) []byte { return payloads[rank] },
		func(p transport.Proc) error {
			return jobBody(job, local0, global, sink)(transport.Traced(p, rankSpans[0]))
		})
	finishRunSpans(run, rankSpans, st)
	return st, err
}

// ServeWorker turns the calling process into a factorization worker: it
// accepts jobs on ln and runs each assigned rank until the listener is
// closed. This is the body of `cacqrd worker`; embedders can serve on a
// listener of their own. It returns nil when ln is closed.
func ServeWorker(ln net.Listener) error {
	return tcpnet.Serve(ln, func(p transport.Proc, payload []byte) error {
		job, local, err := decodeJobPayload(payload)
		if err != nil {
			return err
		}
		return jobBody(job, local, nil, nil)(p)
	})
}
