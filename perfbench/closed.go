package main

import (
	"fmt"
	"net"
	"runtime"
	"sync"
	"time"

	"cacqr"
	"cacqr/internal/costmodel"
	"cacqr/internal/lin"
	"cacqr/internal/plan"
)

// setupReps is how many times a run sets its workload up; setup_s is
// the median.
const setupReps = 3

// closedEnv is one set-up closed-loop workload: the timed operation,
// its output check (run outside the timed region) and teardown.
type closedEnv struct {
	op    func() (*opOut, error)
	check func(*opOut) factorCheck
	close func()
}

// opOut is one operation's output.
type opOut struct {
	q, r   *cacqr.Dense
	stats  cacqr.CostStats
	stream *cacqr.StreamInfo
}

// closedWorkload describes a closed-loop workload with one caller.
type closedWorkload struct {
	m, n     int
	describe string
	setup    func(cfg config) (*closedEnv, error)
	// model is the cost model's prediction of the per-processor
	// counters one operation reports in Result.Stats.
	model costmodel.Cost
	// commLayer names the layer whose counters Stats carries: "sim" for
	// the simulated runtime, "tcp" for real sockets, "" for none.
	commLayer string
	// kernels are the local-kernel shapes the workload issues.
	kernels kernelShapes
}

// loopResult is one closed loop's measurements.
type loopResult struct {
	lat     []float64 // per-operation wall time, ms
	busy    time.Duration
	ok      int
	allocB  uint64
	mallocs uint64
	nm      numerics
	stats   cacqr.CostStats
	stream  *cacqr.StreamInfo
}

// closedLoop runs env's operation back to back until d of operation
// time has been measured, checking each output after its clock stops.
// The check's own allocations and time are excluded.
func closedLoop(env *closedEnv, d time.Duration, out *outcome, counters *counterCheck) loopResult {
	var r loopResult
	var before, after runtime.MemStats
	for r.busy < d {
		// Start each operation from the same heap state: collect the
		// previous output and its check's garbage off the clock.
		runtime.GC()
		runtime.ReadMemStats(&before)
		t0 := time.Now()
		o, err := env.op()
		el := time.Since(t0)
		runtime.ReadMemStats(&after)
		r.busy += el
		r.lat = append(r.lat, float64(el)/1e6)
		r.allocB += after.TotalAlloc - before.TotalAlloc
		r.mallocs += after.Mallocs - before.Mallocs
		var fails []string
		if err == nil {
			c := env.check(o)
			fails = c.fails
			r.nm.observe(c)
			if drift := counters.observe("op", o.stats); drift != "" {
				fails = append(fails, drift)
			}
			r.stats, r.stream = o.stats, o.stream
		}
		out.tally(err, fails)
		if err == nil && len(fails) == 0 {
			r.ok++
		}
	}
	return r
}

// runClosed sets w up setupReps times, measures it, and fills the
// end-to-end or (traced) per-layer metrics.
func runClosed(cfg config, w closedWorkload) (*outcome, error) {
	out := newOutcome()
	out.logf("inputs: %s", w.describe)
	counters := newCounterCheck()
	total := time.Duration(cfg.seconds * float64(time.Second))

	var env *closedEnv
	var setups []float64
	reps := setupReps
	if cfg.trace {
		reps = 1
	}
	for i := 0; i < reps; i++ {
		if env != nil {
			env.close()
		}
		t0 := time.Now()
		e, err := w.setup(cfg)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		env = e
		// Warm-up: one checked operation, so lazy set-up inside the
		// program (pools, connections, page cache) is paid here.
		o, err := env.op()
		if err != nil {
			env.close()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		if c := env.check(o); len(c.fails) > 0 {
			env.close()
			return nil, fmt.Errorf("warm-up output failed checks %v (‖QᵀQ−I‖ %.3g, bound %.3g)", c.fails, c.orth, c.bound)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer env.close()
	out.logf("setup: %d repetitions, median %.3f s of %v", len(setups), median(setups), fmtFloats(setups))

	if !cfg.trace {
		r := closedLoop(env, total, out, counters)
		closedEndToEnd(out, w, r, median(setups))
		r.nm.report(out)
		return out, nil
	}

	// Traced run: an untraced half for the overhead baseline, then a
	// traced half under the CPU profiler. The direct Factorize* entry
	// points emit no spans, so the profile and the exact counters carry
	// the layer split here.
	plain := closedLoop(env, total/2, out, counters)
	var traced loopResult
	prof, err := profileCPU(func() {
		traced = closedLoop(env, total/2, out, counters)
	})
	if err != nil {
		return nil, err
	}
	out.logf("%s", latencyLine("untraced half", plain.lat))
	out.logf("%s", latencyLine("traced half", traced.lat))
	out.set("trace.overhead_frac", median(traced.lat)/median(plain.lat)-1)
	out.set("allocs_per_op", float64(plain.mallocs)/float64(len(plain.lat)))
	plain.nm.merge(traced.nm)
	plain.nm.report(out)
	prof.report(out)
	runKernelProbes(out, w.kernels)
	layerCounters(out, w, plain)
	return out, nil
}

// closedEndToEnd fills the end-to-end metrics of a closed loop. A
// closed loop has one load level, so the metrics serve-mixed reports per
// rate read the loop's own figures: .low and .high carry its median and
// tail latency, max_rate_rps the rate its one caller sustained.
func closedEndToEnd(out *outcome, w closedWorkload, r loopResult, setup float64) {
	n := float64(len(r.lat))
	busy := r.busy.Seconds()
	t, pct := tail(r.lat)
	out.logf("%s", latencyLine("closed loop, 1 caller", r.lat))
	out.logf("timed %.3f s, %d operations, %d ok; heap %.1f MB and %.0f allocations per operation",
		busy, len(r.lat), r.ok, float64(r.allocB)/n/1e6, float64(r.mallocs)/n)
	out.logf("latency_ms_tail is p%g of %d samples", pct, len(r.lat))
	out.set("setup_s", setup)
	out.set("gflops", float64(lin.CQR2Flops(w.m, w.n))*float64(r.ok)/busy/1e9)
	out.set("latency_ms_p50", median(r.lat))
	out.set("latency_ms_tail", t)
	out.set("latency_ms_p50.low", median(r.lat))
	out.set("latency_ms_tail.low", t)
	out.set("latency_ms_p50.high", median(r.lat))
	out.set("latency_ms_tail.high", t)
	out.set("max_rate_rps", float64(r.ok)/busy)
	out.set("alloc_mb_per_op", float64(r.allocB)/n/1e6)
	out.set("ok_frac", float64(r.ok)/n)
}

// layerCounters reports the program's exact counters against the cost
// model's prediction.
func layerCounters(out *outcome, w closedWorkload, r loopResult) {
	st, m := r.stats, w.model
	out.logf("counters per operation: msgs %d words %d flops %d bytes %d; model msgs %d words %d flops %d io_bytes %d",
		st.Msgs, st.Words, st.Flops, st.Bytes, m.Msgs, m.Words, m.Flops+m.UpdateFlops+m.PanelFlops, m.IOBytes)
	switch w.commLayer {
	case "sim":
		out.set("sim.msgs_per_proc", float64(st.Msgs))
		out.set("sim.words_per_proc", float64(st.Words))
		out.set("sim.msgs_over_model", ratio(float64(st.Msgs), float64(m.Msgs)))
		out.set("sim.words_over_model", ratio(float64(st.Words), float64(m.Words)))
		out.set("sim.flops_over_model", ratio(float64(st.Flops), float64(m.Flops+m.UpdateFlops+m.PanelFlops)))
	case "tcp":
		out.set("tcp.wire_bytes_per_proc", float64(st.Bytes))
		out.set("tcp.wire_over_model", ratio(float64(st.Bytes), 8*float64(m.Words)))
		out.set("tcp.msgs_over_model", ratio(float64(st.Msgs), float64(m.Msgs)))
		out.set("tcp.words_over_model", ratio(float64(st.Words), float64(m.Words)))
	}
	if s := r.stream; s != nil {
		out.logf("stream: %d panels of %d rows, read %d B, written %d B, max resident %d B",
			s.Panels, s.PanelRows, s.ReadBytes, s.WrittenBytes, s.MaxResidentBytes)
		out.set("stream.read_mb", float64(s.ReadBytes)/1e6)
		out.set("stream.written_mb", float64(s.WrittenBytes)/1e6)
		out.set("stream.io_over_model", ratio(float64(s.ReadBytes+s.WrittenBytes), float64(m.IOBytes)))
		out.set("stream.flops_over_model", ratio(float64(st.Flops), float64(m.Flops+m.UpdateFlops+m.PanelFlops)))
		out.set("stream.max_resident_mb", float64(s.MaxResidentBytes)/1e6)
	}
}

func fmtFloats(xs []float64) string {
	s := "["
	for i, x := range xs {
		if i > 0 {
			s += " "
		}
		s += fmt.Sprintf("%.3f", x)
	}
	return s + "]"
}

// ---- grid3d ----

const (
	gridM, gridN = 8192, 128
	gridC, gridD = 2, 4
)

func runGrid3D(cfg config) (*outcome, error) {
	spec := cacqr.GridSpec{C: gridC, D: gridD}
	model, err := cacqr.ModelCACQR2(gridM, gridN, spec, cacqr.Options{})
	if err != nil {
		return nil, err
	}
	return runClosed(cfg, closedWorkload{
		m: gridM, n: gridN,
		describe: fmt.Sprintf("FactorizeOnGrid %dx%d Gaussian (κ from EstimateCondition), grid c=%d d=%d (P=%d simulated ranks), per-rank block %dx%d",
			gridM, gridN, gridC, gridD, spec.Procs(), gridM/gridD, gridN/gridC),
		model:     model,
		commLayer: "sim",
		kernels:   kernelShapes{rows: gridM / gridD, cols: gridN / gridC, hqrRows: gridM / gridD},
		setup: func(cfg config) (*closedEnv, error) {
			a := cacqr.RandomMatrix(gridM, gridN, cfg.seed)
			kappa := cacqr.EstimateCondition(a)
			return &closedEnv{
				op: func() (*opOut, error) {
					res, err := cacqr.FactorizeOnGrid(a, spec, cacqr.Options{})
					if err != nil {
						return nil, err
					}
					return &opOut{q: res.Q, r: res.R, stats: res.Stats}, nil
				},
				check: func(o *opOut) factorCheck {
					return checkFactors(a, o.q, o.r, plan.CACQR2, 0, kappa)
				},
				close: func() {},
			}, nil
		},
	})
}

// ---- tcp-1d ----

const (
	tcpM, tcpN, tcpP = 16384, 64, 4
)

func runTCP1D(cfg config) (*outcome, error) {
	model, err := costmodel.OneDCQR2(tcpM, tcpN, tcpP)
	if err != nil {
		return nil, err
	}
	return runClosed(cfg, closedWorkload{
		m: tcpM, n: tcpN,
		describe: fmt.Sprintf("Factorize1D %dx%d Gaussian (κ from EstimateCondition), P=%d over TCPTransport (%d loopback ServeWorker listeners), per-rank block %dx%d",
			tcpM, tcpN, tcpP, tcpP-1, tcpM/tcpP, tcpN),
		model:     model,
		commLayer: "tcp",
		kernels:   kernelShapes{rows: tcpM / tcpP, cols: tcpN, hqrRows: tcpM / tcpP},
		setup: func(cfg config) (*closedEnv, error) {
			a := cacqr.RandomMatrix(tcpM, tcpN, cfg.seed)
			kappa := cacqr.EstimateCondition(a)
			workers, err := startWorkers(tcpP - 1)
			if err != nil {
				return nil, err
			}
			opts := cacqr.Options{Transport: cacqr.TCPTransport(workers.addrs...)}
			return &closedEnv{
				op: func() (*opOut, error) {
					res, err := cacqr.Factorize1D(a, tcpP, opts)
					if err != nil {
						return nil, err
					}
					return &opOut{q: res.Q, r: res.R, stats: res.Stats}, nil
				},
				check: func(o *opOut) factorCheck {
					return checkFactors(a, o.q, o.r, plan.OneD, 0, kappa)
				},
				close: workers.stop,
			}, nil
		},
	})
}

// workerSet is a group of in-process loopback TCP workers.
type workerSet struct {
	addrs []string
	lns   []net.Listener
	wg    sync.WaitGroup
}

func startWorkers(n int) (*workerSet, error) {
	ws := &workerSet{}
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			ws.stop()
			return nil, err
		}
		ws.lns = append(ws.lns, ln)
		ws.addrs = append(ws.addrs, ln.Addr().String())
		ws.wg.Add(1)
		go func() {
			defer ws.wg.Done()
			_ = cacqr.ServeWorker(ln) // returns nil once stop closes ln
		}()
	}
	return ws, nil
}

// stop closes the listeners and waits for the accept loops to return.
func (ws *workerSet) stop() {
	for _, ln := range ws.lns {
		ln.Close()
	}
	ws.wg.Wait()
}
