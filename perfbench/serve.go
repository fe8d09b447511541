package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cacqr"
	"cacqr/internal/lin"
	"cacqr/internal/plan"
)

// serve-mixed: an open loop into an in-process Server with cacqrd's
// default options at a low and a high fixed rate, then a closed loop.
// In the open loop a single generator goroutine issues a precomputed
// schedule with evenly spaced arrivals and times every request from its
// due time.
const (
	serveLowRate  = 24.0 // offered requests/s of the low-rate phase
	serveHighRate = 48.0 // offered requests/s of the high-rate phase
	// Shares (%) of --seconds for the low and high phases and the closed
	// loop. Each fixed-rate phase replays its schedule serveReplays
	// times; at 22 s one replay holds 96 requests at the low rate and 98
	// at the high one, so each phase's tail (the highest percentile with
	// ten samples beyond, over all replays) is its p95.
	serveLowShare, serveHighShare, serveSatShare = 55, 28, 17
	// serveReplays is how many times each fixed-rate phase replays its
	// schedule (see replay), and how many rounds the phases are
	// interleaved in.
	serveReplays = 3
	// serveTailLimitMs is the latency limit max_rate_rps must meet, on a
	// phase's highest percentile with ten samples beyond it (p90 for
	// 100–199 requests, p95 for 200–999): a p99 needs 1000 requests,
	// more than a replay holds.
	serveTailLimitMs = 250.0
	// serveLateBoundMs invalidates a run whose generator fell this far
	// behind its schedule: the host, not the program, set its figures.
	serveLateBoundMs = 500.0
	// serveWindow is the schedule slice between output checks: arrivals
	// pause after each window until its requests finish and are checked,
	// so results need not all stay resident and checks never share the
	// CPU with timed requests.
	serveWindow = 1 * time.Second

	// The mix, dealt by position (see schedule and buildDeck): one
	// arrival in tailEvery has a unique shape that misses the 128-entry
	// plan cache, one in burstEvery is a SubmitBatch burst of burstSize
	// same-shape requests, one in scaledEvery is scaled by 2^k; one deck
	// card in illEvery is ill-conditioned, and every solveEvery-th
	// well-conditioned regular arrival is a least-squares solve. Half of
	// the arrivals carry the true κ as a hint.
	tailEvery, burstEvery, scaledEvery = 20, 20, 50
	illEvery, solveEvery               = 10, 5
	burstSize                          = 4
)

var (
	serveShapes = [][2]int{{512, 8}, {512, 16}, {1024, 16}, {2048, 16}, {1024, 32}, {2048, 32}, {4096, 32}, {2048, 64}, {4096, 64}}
	// serveShapeWeights are the shapes' shares (of 20) among regular and
	// burst arrivals, listed in order of service time. The weights put
	// the median request inside one shape's band (2048×16 holds about
	// the 37th–56th percentiles of the low phase) rather than on a
	// boundary between two shapes, where a few requests changing sides
	// would move the median by the gap between them. A lighter mix that
	// centres the median in that band read no steadier from run to run:
	// its high-rate tail spread more.
	serveShapeWeights = []int{3, 3, 2, 5, 2, 2, 1, 1, 1}
	serveDeck         = buildDeck()
	// serveKappas are the two condition numbers of the mix: well
	// conditioned, and far beyond CholeskyQR2's reach (routed to shifted
	// CQR3; unhinted, the estimator pays its Householder fallback). Both
	// sit mid-decade, so a hint and the estimate of the same matrix (a
	// lower bound) fall in one plan-cache κ-bucket whatever the seed.
	serveKappas = []float64{5e2, 5e9}
	// serveScales are the 2^k input scales of the mix; each is handled
	// correctly today. probeScales are beyond the Gram matrix's range
	// and are run as a side probe (probeScaledNaN).
	serveScales = []int{200, 400, 500}
	probeScales = []int{532, 600}
)

// Tail shapes: n = tailCols and m = tailRows0, tailRows0+8, …: tailKeys
// keys, more than a run issues, all of about one cost, so which of them
// a seed deals moves no latency percentile.
const tailCols, tailRows0, tailKeys = 24, 2048, 128

// tailKappa bounds the condition number of the Gaussian tail inputs
// (m ≥ 10n makes κ < 2); PredictOrthogonality's bound is flat below
// κ ≈ 1e3, so the bound does not hinge on its exact value.
const tailKappa = 10

// poolEntry is one input with its least-squares data.
type poolEntry struct {
	a     *cacqr.Dense
	b     []float64 // A·x for a random x
	xRef  []float64 // Householder solution of min ‖A·x − b‖
	kappa float64
}

type eventKind int

const (
	kindRegular eventKind = iota
	kindBatch
	kindTail
	kindScaled
)

// event is one scheduled arrival.
type event struct {
	at    time.Duration // due offset from the phase start
	kind  eventKind
	shape int // serveShapes index (regular, batch)
	ill   bool
	hint  bool
	solve bool
	scale int // serveScales index (scaled)
}

// units is the number of requests the event carries.
func (e event) units() int {
	if e.kind == kindBatch {
		return burstSize
	}
	return 1
}

// serveEnv is a set-up serve-mixed workload.
type serveEnv struct {
	srv     *cacqr.Server
	tracer  *cacqr.Tracer
	regular []*poolEntry // [shape*len(serveKappas)+κ]
	scaled  []*poolEntry
	tailBuf []float64
	tails   [][2]int // seeded order of unused tail shapes
	tailPos int
	spans   *serveSpans // nil unless traced
}

func setupServe(cfg config, traced bool) (*serveEnv, error) {
	env := &serveEnv{}
	seed := cfg.seed * 1000
	for _, sh := range serveShapes {
		for _, k := range serveKappas {
			seed++
			a, err := conditioned(sh[0], sh[1], k, seed)
			if err != nil {
				return nil, err
			}
			e, err := newPoolEntry(a, k, seed)
			if err != nil {
				return nil, err
			}
			env.regular = append(env.regular, e)
		}
	}
	base, err := conditioned(1024, 32, serveKappas[0], seed+1)
	if err != nil {
		return nil, err
	}
	for _, k := range serveScales {
		e, err := newPoolEntry(scaled(base, k), serveKappas[0], seed+2)
		if err != nil {
			return nil, err
		}
		env.scaled = append(env.scaled, e)
	}
	env.tailBuf = cacqr.RandomMatrix(4096, 64, seed+3).Data
	for i := 0; i < tailKeys; i++ {
		env.tails = append(env.tails, [2]int{tailRows0 + 8*i, tailCols})
	}
	rand.New(rand.NewSource(cfg.seed)).Shuffle(len(env.tails), func(i, j int) { env.tails[i], env.tails[j] = env.tails[j], env.tails[i] })

	opts := cacqr.Options{PlanMachine: &cacqr.Stampede2}
	if traced {
		env.tracer = cacqr.NewTracer(cacqr.TracerOptions{SampleEvery: 1, Retain: 1 << 14})
		opts.Tracer = env.tracer
	}
	env.srv, err = cacqr.NewServer(cacqr.ServerOptions{Procs: 16, Options: opts})
	if err != nil {
		return nil, err
	}
	// Warm-up: one request per regular key, hinted and not, so the plan
	// cache holds the steady-state keys before timing.
	for _, e := range env.regular {
		for _, hint := range []bool{false, true} {
			req := cacqr.SubmitRequest{A: e.a}
			if hint {
				req.CondEst = e.kappa
			}
			if _, err := env.srv.Submit(req); err != nil {
				env.srv.Close()
				return nil, fmt.Errorf("warm-up %dx%d: %w", req.A.Rows, req.A.Cols, err)
			}
		}
	}
	return env, nil
}

func newPoolEntry(a *cacqr.Dense, kappa float64, seed int64) (*poolEntry, error) {
	rng := rand.New(rand.NewSource(seed))
	x := make([]float64, a.Cols)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	b := make([]float64, a.Rows)
	for i := range b {
		var s float64
		for j, xj := range x {
			s += a.At(i, j) * xj
		}
		b[i] = s
	}
	xRef, err := householderSolve(a, b)
	if err != nil {
		return nil, err
	}
	return &poolEntry{a: a, b: b, xRef: xRef, kappa: kappa}, nil
}

// conditioned returns U·diag(σ)·Vᵀ for random U (m×n) and V (n×n) with
// orthonormal columns and σ spaced geometrically from 1 to 1/kappa, so
// κ₂ = kappa to working accuracy.
func conditioned(m, n int, kappa float64, seed int64) (*cacqr.Dense, error) {
	u, _, err := cacqr.CholeskyQR2(cacqr.RandomMatrix(m, n, seed))
	if err != nil {
		return nil, err
	}
	v, _, err := cacqr.HouseholderQR(cacqr.RandomMatrix(n, n, seed+1))
	if err != nil {
		return nil, err
	}
	for j := 0; j < n; j++ {
		s := math.Pow(kappa, -float64(j)/float64(n-1))
		for i := 0; i < m; i++ {
			u.Data[i*n+j] *= s
		}
	}
	a := lin.NewMatrix(m, n)
	lin.Gemm(false, true, 1, lin.FromSlice(m, n, u.Data), lin.FromSlice(n, n, v.Data), 0, a)
	return &cacqr.Dense{Rows: m, Cols: n, Data: a.Data}, nil
}

// scaled returns a copy of a multiplied by 2^k (exact in floating point
// while no entry leaves the normal range).
func scaled(a *cacqr.Dense, k int) *cacqr.Dense {
	out := cacqr.NewDense(a.Rows, a.Cols)
	for i, v := range a.Data {
		out.Data[i] = math.Ldexp(v, k)
	}
	return out
}

// card is one entry of the deck regular and burst arrivals are dealt
// from.
type card struct {
	shape     int
	ill, hint bool
}

// buildDeck lists every (shape, κ, hint) combination in the mix's
// proportions — per weight unit of a shape, one ill-conditioned card in
// illEvery, hinted and unhinted alike — in an order shuffled once with
// a fixed seed, so any run of consecutive cards is close to the full
// mix.
func buildDeck() []card {
	var d []card
	for s, w := range serveShapeWeights {
		for i := 0; i < w*illEvery; i++ {
			for _, hint := range []bool{false, true} {
				d = append(d, card{shape: s, ill: i%illEvery == 0, hint: hint})
			}
		}
	}
	rand.New(rand.NewSource(1)).Shuffle(len(d), func(i, j int) { d[i], d[j] = d[j], d[i] })
	return d
}

// schedule builds one phase's arrivals: rate offered requests/s for
// d, evenly spaced. The arrival sequence is fixed — it does not depend
// on the seed, which only picks the input matrices and the order of the
// tail shapes — so which requests overlap which is the same on every
// run, and a run-to-run difference is the program's or the host's.
// Regular and burst arrivals take the next card of serveDeck; tail and
// scaled arrivals carry a hint on alternate occurrences.
func schedule(rate float64, d time.Duration) []event {
	unitsPerEvent := 1 + float64(burstSize-1)/burstEvery
	n := int(math.Round(rate * d.Seconds() / unitsPerEvent))
	if n < 1 {
		n = 1
	}
	evs := make([]event, n)
	j, side := 0, 0
	for e := range evs {
		ev := &evs[e]
		switch {
		case e%tailEvery == tailEvery-1:
			ev.kind = kindTail
		case e%scaledEvery == scaledEvery/2-1: // never a tail position
			ev.kind = kindScaled
			ev.scale = (e / scaledEvery) % len(serveScales)
		case e%burstEvery == burstEvery/2-1:
			ev.kind = kindBatch
		}
		if ev.kind == kindTail || ev.kind == kindScaled {
			ev.hint = side%2 == 1
			side++
			continue
		}
		c := serveDeck[j%len(serveDeck)]
		ev.shape, ev.ill, ev.hint = c.shape, c.ill, c.hint
		ev.solve = j%solveEvery == solveEvery-2 && !c.ill && ev.kind == kindRegular
		j++
	}
	spacing := d / time.Duration(n)
	for i := range evs {
		evs[i].at = time.Duration(i) * spacing
	}
	return evs
}

// unitRec is one request unit's record.
type unitRec struct {
	req   cacqr.SubmitRequest
	entry *poolEntry // nil for tail inputs
	kappa float64
	due   time.Time
	done  time.Time
	res   *cacqr.SubmitResult
	err   error
}

// requests materializes an event's requests.
func (env *serveEnv) requests(ev event) []*unitRec {
	switch ev.kind {
	case kindTail:
		if env.tailPos == len(env.tails) {
			env.tailPos = 0 // every earlier key has long left the LRU
		}
		sh := env.tails[env.tailPos]
		env.tailPos++
		a := &cacqr.Dense{Rows: sh[0], Cols: sh[1], Data: env.tailBuf[:sh[0]*sh[1]]}
		r := &unitRec{req: cacqr.SubmitRequest{A: a}, kappa: tailKappa}
		if ev.hint {
			r.req.CondEst = tailKappa
		}
		return []*unitRec{r}
	case kindScaled:
		e := env.scaled[ev.scale]
		r := &unitRec{req: cacqr.SubmitRequest{A: e.a}, entry: e, kappa: e.kappa}
		if ev.hint {
			r.req.CondEst = e.kappa
		}
		return []*unitRec{r}
	}
	k := 0
	if ev.ill {
		k = 1
	}
	e := env.regular[ev.shape*len(serveKappas)+k]
	recs := make([]*unitRec, ev.units())
	for i := range recs {
		r := &unitRec{req: cacqr.SubmitRequest{A: e.a}, entry: e, kappa: e.kappa}
		if ev.hint {
			r.req.CondEst = e.kappa
		}
		if ev.solve {
			r.req.B = e.b
		}
		recs[i] = r
	}
	return recs
}

// window is one slice of a phase's schedule after it ran and was
// checked.
type window struct {
	lat      []float64 // ms from due time, failed requests as +Inf
	units    int
	ok       int
	flops    float64 // CQR2 flops of ok requests
	first    time.Time
	last     time.Time
	lateMax  time.Duration
	backlog  int // unfinished requests when the last arrival was issued
	rerouted int
	allocB   uint64
	mallocs  uint64
	byClass  map[string][]float64 // ok latencies by shape and executed variant
}

// runWindow issues evs (offsets relative to origin), waits for every
// request, then checks the outputs.
func (env *serveEnv) runWindow(evs []event, origin time.Duration, out *outcome, counters *counterCheck, nm *numerics) window {
	var w window
	var wg sync.WaitGroup
	var inflight atomic.Int64
	var recs []*unitRec
	// Collect the previous window's outputs and check garbage first, so
	// it is not collected on this window's clock.
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	w.first = start
	for _, ev := range evs {
		rs := env.requests(ev)
		due := start.Add(ev.at - origin)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		if late := time.Since(due); late > w.lateMax {
			w.lateMax = late
		}
		for _, r := range rs {
			r.due = due
		}
		recs = append(recs, rs...)
		inflight.Add(int64(len(rs)))
		wg.Add(1)
		go func(rs []*unitRec) {
			defer wg.Done()
			env.issue(rs)
			inflight.Add(-int64(len(rs)))
		}(rs)
	}
	w.backlog = int(inflight.Load())
	wg.Wait()
	runtime.ReadMemStats(&after)
	w.allocB = after.TotalAlloc - before.TotalAlloc
	w.mallocs = after.Mallocs - before.Mallocs
	env.finish(&w, recs, out, counters, nm)
	return w
}

// finish checks a window's finished requests and folds them into w.
func (env *serveEnv) finish(w *window, recs []*unitRec, out *outcome, counters *counterCheck, nm *numerics) {
	w.units = len(recs)
	for _, r := range recs {
		if r.done.After(w.last) {
			w.last = r.done
		}
		fails := env.check(r, counters, nm)
		out.tally(r.err, fails)
		if r.err == nil && len(fails) == 0 {
			w.ok++
			ms := float64(r.done.Sub(r.due)) / 1e6
			w.lat = append(w.lat, ms)
			cls := fmt.Sprintf("%dx%d/%s", r.req.A.Rows, r.req.A.Cols, r.res.Plan.Variant)
			if w.byClass == nil {
				w.byClass = map[string][]float64{}
			}
			w.byClass[cls] = append(w.byClass[cls], ms)
			w.flops += float64(lin.CQR2Flops(r.req.A.Rows, r.req.A.Cols))
			if v := r.res.Plan.Variant; v == plan.ShiftedCQR3 || v == plan.TSQR {
				w.rerouted++
			}
		} else {
			w.lat = append(w.lat, math.Inf(1))
		}
		r.res = nil // release the factors
	}
}

// closedWindow runs one window of a closed loop of serveSatCallers
// callers: each caller issues the next arrival of evs as soon as its
// last one returns, until d has passed; then the window's requests
// finish and their outputs are checked and released off the clock, so
// every window starts from the same heap state, as the open-loop
// windows do. The window's wall time runs from its start to its last
// completion.
func (env *serveEnv) closedWindow(evs []event, next *int, d time.Duration, out *outcome, counters *counterCheck, nm *numerics) window {
	var w window
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var mu sync.Mutex
	var recs []*unitRec
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for c := 0; c < serveSatCallers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				mu.Lock()
				if *next == len(evs) {
					mu.Unlock()
					return
				}
				rs := env.requests(evs[*next])
				*next++
				recs = append(recs, rs...)
				mu.Unlock()
				now := time.Now()
				for _, r := range rs {
					r.due = now
				}
				env.issue(rs)
			}
		}()
	}
	wg.Wait()
	runtime.ReadMemStats(&after)
	w.first = start
	w.allocB = after.TotalAlloc - before.TotalAlloc
	w.mallocs = after.Mallocs - before.Mallocs
	env.finish(&w, recs, out, counters, nm)
	return w
}

// issue submits one event's requests and records their outcomes.
func (env *serveEnv) issue(rs []*unitRec) {
	if len(rs) == 1 {
		r := rs[0]
		r.res, r.err = env.srv.Submit(r.req)
		r.done = time.Now()
		if r.err == nil {
			env.spans.fold(env.tracer, r.res.TraceID)
		}
		return
	}
	reqs := make([]cacqr.SubmitRequest, len(rs))
	for i, r := range rs {
		reqs[i] = r.req
	}
	items := env.srv.SubmitBatch(reqs)
	done := time.Now()
	for i, it := range items {
		rs[i].res, rs[i].err, rs[i].done = it.Result, it.Err, done
	}
}

// check runs every output check on one finished request.
func (env *serveEnv) check(r *unitRec, counters *counterCheck, nm *numerics) []string {
	if r.err != nil {
		return nil
	}
	res := r.res
	if res.Plan == nil {
		return []string{"plan-missing"}
	}
	c := checkFactors(r.req.A, res.Q, res.R, res.Plan.Variant, res.Plan.PanelWidth, r.kappa)
	nm.observe(c)
	fails := c.fails
	if r.req.B != nil {
		fails = append(fails, checkSolve(res.X, r.entry.xRef, r.kappa)...)
	}
	key := fmt.Sprintf("%dx%d/%s/%s/fused=%v", r.req.A.Rows, r.req.A.Cols, res.Plan.Variant, res.Plan.GridString(), res.Fused)
	if d := counters.observe(key, res.Stats); d != "" {
		fails = append(fails, d)
	}
	return fails
}

// phase is the merged result of a run of windows.
type phase struct {
	name string
	rate float64
	window
	wall time.Duration // first due to last completion, summed over windows
	// replays holds each replay's latencies (see replay); lat holds
	// them all.
	replays [][]float64
}

// replay runs a rate's schedule evs, spanning span, once more in
// serveWindow slices and folds it into p as one replay. A replay
// repeats the same arrivals, so replays differ only by what the host
// and the program did at the time; the phase's percentiles are each
// replay's, averaged (see latency).
func (env *serveEnv) replay(p *phase, evs []event, span time.Duration, out *outcome, counters *counterCheck, nm *numerics) {
	var lat []float64
	for lo := time.Duration(0); lo < span; lo += serveWindow {
		var slice []event
		for _, e := range evs {
			if e.at >= lo && e.at < lo+serveWindow {
				slice = append(slice, e)
			}
		}
		if len(slice) == 0 {
			continue
		}
		w := env.runWindow(slice, lo, out, counters, nm)
		lat = append(lat, w.lat...)
		p.fold(w)
	}
	p.replays = append(p.replays, lat)
	p.lat = append(p.lat, lat...)
}

// runPhase runs a rate-r schedule of duration d once.
func (env *serveEnv) runPhase(name string, rate float64, d time.Duration, out *outcome, counters *counterCheck, nm *numerics) phase {
	p := phase{name: name, rate: rate}
	env.replay(&p, schedule(rate, d), d, out, counters, nm)
	return p
}

// latency returns the phase's median and tail latency, and the tail's
// percentile: the median is the Harrell–Davis estimate (see hdQuantile)
// of each replay's sample, averaged over the replays; the tail is the
// Harrell–Davis estimate over all replays pooled (see hdTail), which
// reaches a higher percentile than one replay can. A phase run without
// replays counts as one.
func (p phase) latency() (p50, tail, pct float64) {
	reps := p.replays
	if len(reps) == 0 {
		reps = [][]float64{p.lat}
	}
	for _, lat := range reps {
		p50 += hdQuantile(lat, 0.5) / float64(len(reps))
	}
	tail, pct = hdTail(p.lat)
	return p50, tail, pct
}

// replayP50s lists each replay's median latency, to show drift within
// the phase.
func (p phase) replayP50s() []float64 {
	var out []float64
	for _, lat := range p.replays {
		out = append(out, hdQuantile(lat, 0.5))
	}
	return out
}

// fold adds one window's counts to the phase.
func (p *phase) fold(w window) {
	if p.byClass == nil {
		p.byClass = map[string][]float64{}
	}
	for c, v := range w.byClass {
		p.byClass[c] = append(p.byClass[c], v...)
	}
	p.units += w.units
	p.ok += w.ok
	p.flops += w.flops
	p.rerouted += w.rerouted
	p.allocB += w.allocB
	p.mallocs += w.mallocs
	p.wall += w.last.Sub(w.first)
	if w.lateMax > p.lateMax {
		p.lateMax = w.lateMax
	}
	if w.backlog > p.backlog {
		p.backlog = w.backlog
	}
}

// classLine summarizes latency by request class: count and median.
func (p phase) classLine() string {
	names := make([]string, 0, len(p.byClass))
	for c := range p.byClass {
		names = append(names, c)
	}
	sort.Strings(names)
	var parts []string
	for _, c := range names {
		parts = append(parts, fmt.Sprintf("%s n=%d p50=%.2f", c, len(p.byClass[c]), median(p.byClass[c])))
	}
	return strings.Join(parts, "; ")
}

// throughput is the completed request rate over the phase's wall time.
func (p phase) throughput() float64 { return float64(p.ok) / p.wall.Seconds() }

// meets reports whether the phase met the tail-latency limit with no
// failures and no growing backlog: at its last arrival no more requests
// may be unfinished than arrive within one latency limit.
func (p phase) meets() bool {
	_, t, _ := p.latency()
	return p.ok == p.units && t <= serveTailLimitMs && float64(p.backlog) <= p.rate*serveTailLimitMs/1e3
}

func (p phase) line() string {
	p50, t, pct := p.latency()
	byReplay := ""
	if len(p.replays) > 1 {
		byReplay = fmt.Sprintf(" (by replay %s)", fmtFloats(p.replayP50s()))
	}
	return fmt.Sprintf("%s: offered %.1f req/s, %d requests (%d ok), p50 %.2f ms%s, p%g %.2f ms (n=%d), p99 %.2f ms, throughput %.1f req/s, backlog %d, generator late ≤%.2f ms, meets limit %v",
		p.name, p.rate, p.units, p.ok, p50, byReplay, pct, t, len(p.lat), quantile(p.lat, 0.99), p.throughput(), p.backlog, float64(p.lateMax)/1e6, p.meets())
}

// serveSatCallers is the caller count of the closed loop that sets
// max_rate_rps. A closed loop bounds the queue by construction, so its
// throughput is a rate the server sustains with no growing backlog; it
// counts as meeting the latency limit when its tail does. (Open-loop
// probes near the knee read too unsteadily from run to run on a 2-vCPU
// host to meet the benchmark's bounds.) Three callers keep both CPUs
// busy without the collapse in efficiency that deeper concurrency of
// 16-rank runs brings.
const serveSatCallers = 3

// serveSatWindows is how many windows the closed loop runs in, a
// multiple of serveReplays.
const serveSatWindows = 12

func runServeMixed(cfg config) (*outcome, error) {
	out := newOutcome()
	total := time.Duration(cfg.seconds * float64(time.Second))
	out.logf("inputs: Server with cacqrd defaults (Procs 16, 128-entry plan cache, 2 ms batch window, rank budget 256, MaxPending 1024, no fuse window, Stampede2 planning)")
	out.logf("mix: shapes %v weighted %v of 20; 1 in %d arrivals a unique shape m∈[%d,%d]/8, n=%d (plan-cache misses); κ=%g on 1 in %d regular and burst arrivals, else κ=%g; κ hint on half; a solve on 1 in %d well-conditioned regular arrivals; 1 in %d a SubmitBatch burst of %d; 1 in %d scaled by 2^k, k∈%v",
		serveShapes, serveShapeWeights, tailEvery, tailRows0, tailRows0+8*(tailKeys-1), tailCols, serveKappas[1], illEvery, serveKappas[0], solveEvery,
		burstEvery, burstSize, scaledEvery, serveScales)
	out.logf("rates: low %.0f req/s for %v and high %.0f req/s for %v, evenly spaced arrivals, each phase one schedule replayed %d times; a closed loop of %d callers for %v in %d windows; the phases interleaved, one replay of each and a share of the windows a round; tail-latency limit %.0f ms; generator late bound %.0f ms",
		serveLowRate, total*serveLowShare/100, serveHighRate, total*serveHighShare/100, serveReplays, serveSatCallers, total*serveSatShare/100, serveSatWindows, serveTailLimitMs, serveLateBoundMs)

	var env *serveEnv
	var setups []float64
	reps := setupReps
	if cfg.trace {
		reps = 1
	}
	for i := 0; i < reps; i++ {
		if env != nil {
			env.srv.Close()
		}
		t0 := time.Now()
		e, err := setupServe(cfg, cfg.trace)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		env = e
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer env.srv.Close()
	out.logf("setup: %d repetitions, median %.3f s of %s", len(setups), median(setups), fmtFloats(setups))

	counters := newCounterCheck()
	var nm numerics
	var phases []phase
	late := func() error {
		for _, p := range phases {
			if ms := float64(p.lateMax) / 1e6; ms > serveLateBoundMs {
				return fmt.Errorf("invalid run: the load generator ran %.1f ms late in phase %q (bound %.0f ms)", ms, p.name, serveLateBoundMs)
			}
		}
		return nil
	}
	stats0 := env.srv.Stats()

	if !cfg.trace {
		// The phases run interleaved: each round runs one replay of each
		// fixed-rate phase and a share of the closed loop's windows, so
		// each phase's figures are spread over the whole run rather than
		// a third of it, and a host whose speed drifts over seconds moves
		// them all alike and each less.
		lowD, highD, satD := total*serveLowShare/100, total*serveHighShare/100, total*serveSatShare/100
		low, high := phase{name: "low", rate: serveLowRate}, phase{name: "high", rate: serveHighRate}
		sat := phase{name: fmt.Sprintf("closed loop of %d callers", serveSatCallers)}
		lowEvs := schedule(serveLowRate, lowD/serveReplays)
		highEvs := schedule(serveHighRate, highD/serveReplays)
		satEvs := schedule(1000, satD) // more arrivals than satD can take
		next := 0
		// satRates and satGflops are each closed-loop window's completed
		// request rate and CQR2 GFLOP/s over its wall time; their medians
		// are steadier than whole-loop averages, which one stalled window
		// drags down.
		var satRates, satGflops []float64
		for r := 0; r < serveReplays; r++ {
			env.replay(&low, lowEvs, lowD/serveReplays, out, counters, &nm)
			env.replay(&high, highEvs, highD/serveReplays, out, counters, &nm)
			for i := 0; i < serveSatWindows/serveReplays; i++ {
				w := env.closedWindow(satEvs, &next, satD/serveSatWindows, out, counters, &nm)
				wall := w.last.Sub(w.first).Seconds()
				satRates = append(satRates, float64(w.ok)/wall)
				satGflops = append(satGflops, w.flops/wall/1e9)
				sat.lat = append(sat.lat, w.lat...)
				sat.fold(w)
			}
		}
		sat.rate = sat.throughput()
		phases = append(phases, low, high, sat)
		for _, p := range phases {
			out.logf("%s", p.line())
		}
		if err := late(); err != nil {
			return nil, err
		}
		maxRate, src := low.throughput(), "the low phase's throughput"
		switch {
		case sat.meets():
			maxRate, src = median(satRates), fmt.Sprintf("the %s's median rate over %d windows %s", sat.name, serveSatWindows, fmtFloats(satRates))
		case high.meets():
			maxRate, src = high.throughput(), "the high phase's throughput"
		}
		out.logf("max rate: %.2f req/s, %s (the highest-rate phase that met the limit)", maxRate, src)
		gflops := median(satGflops)
		out.logf("gflops: median over the closed loop's windows %s", fmtFloats(satGflops))
		lowP50, lowT, lowPct := low.latency()
		highP50, highT, highPct := high.latency()
		out.logf("%s", latencyLine("low phase, replays pooled", low.lat))
		out.logf("%s", latencyLine("high phase, replays pooled", high.lat))
		out.logf("low phase by class: %s", low.classLine())
		out.logf("latency metrics are Harrell–Davis estimates: each p50 averaged over the %d replays' own, each tail over the replays pooled; latency_ms_tail and latency_ms_tail.low are p%g of %d low-phase requests, latency_ms_tail.high p%g of %d high-phase requests",
			serveReplays, lowPct, len(low.lat), highPct, len(high.lat))
		out.set("setup_s", median(setups))
		out.set("gflops", gflops)
		out.set("latency_ms_p50", lowP50)
		out.set("latency_ms_tail", lowT)
		out.set("latency_ms_p50.low", lowP50)
		out.set("latency_ms_tail.low", lowT)
		out.set("latency_ms_p50.high", highP50)
		out.set("latency_ms_tail.high", highT)
		out.set("max_rate_rps", maxRate)
		out.set("alloc_mb_per_op", float64(low.allocB+high.allocB)/float64(low.units+high.units)/1e6)
		out.set("ok_frac", float64(low.ok+high.ok)/float64(low.units+high.units))
		serveCacheLine(out, stats0, env.srv.Stats())
		nm.report(out)
		probeScaledNaN(env, out)
		return out, nil
	}

	plain := env.runPhase("low untraced", serveLowRate, total/4, out, counters, &nm)
	env.spans = &serveSpans{byName: map[string][]float64{}}
	var lowT, highT phase
	traceStats0 := env.srv.Stats()
	prof, err := profileCPU(func() {
		lowT = env.runPhase("low traced", serveLowRate, total/4, out, counters, &nm)
		highT = env.runPhase("high traced", serveHighRate, total/2, out, counters, &nm)
	})
	if err != nil {
		return nil, err
	}
	phases = append(phases, plain, lowT, highT)
	for _, p := range phases {
		out.logf("%s", p.line())
	}
	if err := late(); err != nil {
		return nil, err
	}
	st := env.srv.Stats()
	var lateMax time.Duration
	units, rerouted := 0, 0
	for _, p := range phases {
		if p.lateMax > lateMax {
			lateMax = p.lateMax
		}
		units += p.units
		rerouted += p.rerouted
	}
	tracedP50, _, _ := lowT.latency()
	plainP50, _, _ := plain.latency()
	out.set("trace.overhead_frac", tracedP50/plainP50-1)
	out.set("loadgen.late_ms_max", float64(lateMax)/1e6)
	nm.report(out)
	out.set("numerics.rerouted_frac", float64(rerouted)/float64(units))
	lookups := st.Lookups - traceStats0.Lookups
	out.set("plan.lookups", float64(lookups))
	out.set("plan.cache_hit_ratio", ratio(float64(st.Hits-traceStats0.Hits), float64(lookups)))
	out.set("serve.overloaded", float64(st.Overloaded-stats0.Overloaded))
	out.set("allocs_per_op", float64(plain.mallocs)/float64(plain.units))
	env.spans.report(out)
	prof.report(out)
	runKernelProbes(out, kernelShapes{rows: 2048, cols: 32, hqrRows: 4096})
	serveCacheLine(out, traceStats0, st)
	out.set("numerics.scaled_nan_success", float64(probeScaledNaN(env, out)))
	return out, nil
}

// serveCacheLine reports the plan cache between two Stats snapshots.
func serveCacheLine(out *outcome, a, b cacqr.ServerStats) {
	lookups := b.Lookups - a.Lookups
	out.logf("plan cache: %d lookups, %d hits (%.3f), %d misses (%d batched joins, %d planner runs), %d evictions, %d overloaded",
		lookups, b.Hits-a.Hits, ratio(float64(b.Hits-a.Hits), float64(lookups)), b.Misses-a.Misses,
		b.Batched-a.Batched, b.Planned-a.Planned, b.Evictions-a.Evictions, b.Overloaded-a.Overloaded)
}

// probeScaledNaN submits well-conditioned inputs scaled beyond the Gram
// matrix's range (2^k, k in probeScales), hinted and unhinted, outside
// the timed workload. A success whose Q is not finite is a known
// defect; it is printed by name and counted in the traced run's
// numerics.scaled_nan_success.
func probeScaledNaN(env *serveEnv, out *outcome) int {
	base := env.scaled[0].a
	nanSuccess := 0
	for _, k := range probeScales {
		a := scaled(base, k-serveScales[0])
		for _, hint := range []float64{0, serveKappas[0]} {
			res, err := env.srv.Submit(cacqr.SubmitRequest{A: a, CondEst: hint})
			switch {
			case err != nil:
				out.logf("probe 2^%d hint=%g: error %v", k, hint, err)
			case !finite(res.Q.Data) || !finite(res.R.Data):
				nanSuccess++
				out.defects[fmt.Sprintf("scale 2^%d: non-finite Q or R with a nil error", k)]++
			default:
				out.logf("probe 2^%d hint=%g: finite factors via %s", k, hint, res.Plan.Variant)
			}
		}
	}
	return nanSuccess
}

// ---- Server span trees ----

// serveSpans folds the Server's per-request span trees into self times
// by span name.
type serveSpans struct {
	mu     sync.Mutex
	byName map[string][]float64 // ms
	traces int
}

// fold fetches one finished trace and records every span's self time:
// its duration minus the part of it its children cover.
func (s *serveSpans) fold(t *cacqr.Tracer, id string) {
	if s == nil || id == "" {
		return
	}
	td, ok := t.Get(id)
	if !ok {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.traces++
	var walk func(sd cacqr.SpanData)
	walk = func(sd cacqr.SpanData) {
		name := sd.Name
		if strings.HasPrefix(name, "rank-") {
			name = "rank"
		}
		s.byName[name] = append(s.byName[name], float64(selfTime(sd))/1e6)
		if sd.Name == "gate" || sd.Name == "fuse-join" {
			s.byName[sd.Name+".wait"] = append(s.byName[sd.Name+".wait"], float64(sd.Duration)/1e6)
		}
		for _, c := range sd.Children {
			walk(c)
		}
	}
	walk(td.Root)
}

// selfTime is a span's duration minus the union of its children's
// intervals (children of one span may run in parallel).
func selfTime(sd cacqr.SpanData) int64 {
	type iv struct{ lo, hi int64 }
	var ivs []iv
	end := sd.Start + sd.Duration
	for _, c := range sd.Children {
		lo, hi := max(c.Start, sd.Start), min(c.Start+c.Duration, end)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var covered, curLo, curHi int64
	for i, v := range ivs {
		if i == 0 || v.lo > curHi {
			covered += curHi - curLo
			curLo, curHi = v.lo, v.hi
		} else if v.hi > curHi {
			curHi = v.hi
		}
	}
	covered += curHi - curLo
	return sd.Duration - covered
}

// report sets the span-derived per-layer metrics and logs each span
// name's self-time summary.
func (s *serveSpans) report(out *outcome) {
	s.mu.Lock()
	defer s.mu.Unlock()
	q := func(name string, p float64) float64 {
		if len(s.byName[name]) == 0 {
			return 0
		}
		return quantile(s.byName[name], p)
	}
	for _, st := range []string{"gram-syrk", "gram-allreduce", "cholesky", "q-update"} {
		out.set("core."+st+".self_ms", q(st, 0.5))
	}
	out.set("plan.self_ms_p50", q("plan", 0.5))
	out.set("serve.gate_wait_ms_p99", q("gate.wait", 0.99))
	out.set("serve.fuse_join_ms_p99", q("fuse-join.wait", 0.99))
	out.set("serve.execute.self_ms_p50", q("execute", 0.5))
	out.set("condest.self_ms_p50", q("condest", 0.5))
	out.set("condest.self_ms_p99", q("condest", 0.99))
	names := make([]string, 0, len(s.byName))
	for n := range s.byName {
		names = append(names, n)
	}
	sort.Strings(names)
	out.logf("server span trees: %d traced requests (SubmitBatch bursts carry no trace)", s.traces)
	for _, n := range names {
		v := s.byName[n]
		out.logf("  span %-22s n=%-6d self p50 %.3f ms, p99 %.3f ms", n, len(v), quantile(v, 0.5), quantile(v, 0.99))
	}
}
