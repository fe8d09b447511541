// Command perfbench is the repository's end-to-end benchmark. It drives
// the public cacqr API from one process on one of four workloads,
// checks every output, and prints each metric by name with its unit:
//
//	bash perfbench/run.sh --workload grid3d --seed 1 --seconds 22 --trace 0
//
// Workloads (see BENCHMARK.json for why each exists):
//
//	grid3d       closed loop, one caller: FactorizeOnGrid, 8192×128 on c=2, d=4
//	stream-file  closed loop, one caller: FactorizeStreaming file→file, 4096-row panels
//	serve-mixed  open loop into an in-process Server at a low and a high fixed
//	             rate, and a closed loop of three callers, interleaved
//	tcp-1d       closed loop, one caller: Factorize1D over TCPTransport, P=4
//
// With --trace 0 the run measures with tracing off and reports the
// end-to-end metrics named in BENCHMARK.json. Every one is printed on
// every workload: a closed loop has one load level, so its .low and
// .high metrics repeat its median and tail and max_rate_rps is the rate
// its one caller sustained; on serve-mixed, latency_ms_p50 and
// latency_ms_tail are the low-rate phase's. Each fixed-rate phase
// replays one schedule three times; its p50 is the Harrell–Davis
// estimate over each replay, averaged, and its tail the Harrell–Davis
// estimate over the replays pooled. A tail is the highest percentile
// with at least ten samples beyond it; the report names it.
//
// With --trace 1 the run measures an untraced half, then a traced half
// (the Server's own span trees, the program's exact counters and a CPU
// profile folded by package), times the exported lin kernels at the
// workload's shapes under benchmark spans, and reports the per-layer
// metrics. Every per-layer metric is printed on every workload; one with
// nothing to measure there reads 0.
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. Lines before it are a
// human-readable report: host, inputs, sample counts and every failed
// check by name.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// benchSpec is the part of BENCHMARK.json the benchmark reads: the
// metric names, units and order it must print.
type benchSpec struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	scratch  string
}

// outcome is what a workload run hands back to main: metric values by
// name, the operation tally, and report lines.
type outcome struct {
	metrics   map[string]float64
	attempted int
	failed    int
	// wrong counts operations that returned success with an output that
	// failed a check; they are also counted in failed.
	wrong int
	// failures counts failed operations by reason (an error class or a
	// check name); every entry is also counted in failed.
	failures map[string]int
	// defects counts known program defects found by side probes that
	// are not part of the timed workload (see probeScaledNaN).
	defects map[string]int
	lines   []string
}

func newOutcome() *outcome {
	return &outcome{metrics: map[string]float64{}, failures: map[string]int{}, defects: map[string]int{}}
}

func (o *outcome) set(name string, v float64) { o.metrics[name] = v }
func (o *outcome) logf(format string, args ...any) {
	o.lines = append(o.lines, fmt.Sprintf(format, args...))
}

// fail records one failed operation under reason.
func (o *outcome) fail(reason string) {
	o.failed++
	o.failures[reason]++
}

// tally folds one operation's error and failed checks into the outcome.
func (o *outcome) tally(err error, checks []string) {
	o.attempted++
	switch {
	case err != nil:
		o.fail(errClass(err))
	case len(checks) > 0:
		o.wrong++
		o.fail("check:" + strings.Join(checks, "+"))
	}
}

var workloads = map[string]func(cfg config) (*outcome, error){
	"grid3d":      runGrid3D,
	"stream-file": runStreamFile,
	"serve-mixed": runServeMixed,
	"tcp-1d":      runTCP1D,
}

func main() {
	var cfg config
	var trace int
	var specPath string
	flag.StringVar(&cfg.workload, "workload", "", "workload name (grid3d, stream-file, serve-mixed, tcp-1d)")
	flag.Int64Var(&cfg.seed, "seed", 1, "input seed")
	flag.Float64Var(&cfg.seconds, "seconds", 22, "measured seconds")
	flag.IntVar(&trace, "trace", 0, "0 = end-to-end metrics, 1 = traced per-layer metrics")
	flag.StringVar(&cfg.scratch, "scratch", ".bench_build/data", "directory for the benchmark's scratch files")
	flag.StringVar(&specPath, "spec", "BENCHMARK.json", "benchmark definition listing the metrics to print")
	flag.Parse()
	cfg.trace = trace == 1
	if err := run(cfg, trace, specPath); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(cfg config, trace int, specPath string) error {
	if trace != 0 && trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", trace)
	}
	if cfg.seconds <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	raw, err := os.ReadFile(specPath)
	if err != nil {
		return err
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return fmt.Errorf("%s: %w", specPath, err)
	}
	fn := workloads[cfg.workload]
	if fn == nil {
		return fmt.Errorf("unknown --workload %q", cfg.workload)
	}
	if err := os.MkdirAll(cfg.scratch, 0o755); err != nil {
		return err
	}
	want := spec.EndToEnd
	if cfg.trace {
		want = spec.PerLayer
	}

	printHost(cfg)
	start := time.Now()
	out, err := fn(cfg)
	if err != nil {
		return fmt.Errorf("%s: %w", cfg.workload, err)
	}
	for _, l := range out.lines {
		fmt.Println(l)
	}
	for _, r := range sortedKeys(out.failures) {
		fmt.Printf("failed: %-28s %d of %d operations\n", r, out.failures[r], out.attempted)
	}
	for _, r := range sortedKeys(out.defects) {
		fmt.Printf("known defect (side probe, not in the timed workload): %s ×%d\n", r, out.defects[r])
	}

	type jsonMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]jsonMetric, len(want))
	for _, m := range want {
		v, ok := out.metrics[m.Name]
		if !ok && !cfg.trace {
			return fmt.Errorf("%s: metric %q listed in %s was not measured", cfg.workload, m.Name, specPath)
		}
		fmt.Printf("metric %-34s %14.6g %s\n", m.Name, v, m.Unit)
		metrics[m.Name] = jsonMetric{Value: v, Unit: m.Unit}
	}
	fmt.Printf("wall %.1f s\n", time.Since(start).Seconds())
	line, err := json.Marshal(struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{out.wrong == 0, out.attempted, out.failed, metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// printHost records the host and run parameters at the top of every
// report.
func printHost(cfg config) {
	fmt.Printf("workload %s seed %d seconds %g trace %v\n", cfg.workload, cfg.seed, cfg.seconds, cfg.trace)
	fmt.Printf("host nproc %d GOMAXPROCS %d %s %s/%s cpu %q\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH, cpuModel())
}

// cpuModel reads the CPU model name the kernel reports ("unknown" when
// it cannot be read, e.g. off Linux).
func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, l := range strings.Split(string(raw), "\n") {
		if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func sortedKeys(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
