package main

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"cacqr/internal/lin"
)

// ---- benchmark spans ----

// spanLog records the spans the benchmark opens around its own calls
// into the program's exported kernels.
type spanLog struct {
	spans []benchSpan
}

type benchSpan struct {
	name  string
	start time.Time
	dur   time.Duration
}

// begin opens a span and returns its id.
func (l *spanLog) begin(name string) int {
	l.spans = append(l.spans, benchSpan{name: name, start: time.Now()})
	return len(l.spans) - 1
}

func (l *spanLog) end(id int) {
	l.spans[id].dur = time.Since(l.spans[id].start)
}

// durations returns the durations of the spans called name, in ms.
func (l *spanLog) durations(name string) []float64 {
	var out []float64
	for _, s := range l.spans {
		if s.name == name {
			out = append(out, float64(s.dur)/1e6)
		}
	}
	return out
}

// ---- local-kernel probe ----

// kernelShapes are the local-kernel shapes a workload issues: SYRK,
// GEMM and TRMM on a rows×cols block (a per-rank block or a streaming
// panel), Householder QR on hqrRows×cols.
type kernelShapes struct {
	rows, cols, hqrRows int
}

// probeBudget is the time each kernel probe repeats its kernel for.
const probeBudget = 150 * time.Millisecond

// runKernelProbes times the exported lin kernels at the workload's
// shapes, one benchmark span per call, and reports each kernel's rate
// from the median call. Flops per byte are computed from the operand
// sizes (each operand read or written once); no peak is measured, so no
// roofline ratio is given.
func runKernelProbes(out *outcome, ks kernelShapes) {
	m, n := ks.rows, ks.cols
	a := lin.RandomMatrix(m, n, 11)
	b := lin.NewMatrix(m, n)
	c := lin.NewMatrix(n, n)
	t := lin.RandomMatrix(n, n, 12)
	for i := 0; i < n; i++ { // upper triangular, unit-sized diagonal
		for j := 0; j < i; j++ {
			t.Set(i, j, 0)
		}
		t.Set(i, i, 1)
	}
	h := lin.RandomMatrix(ks.hqrRows, n, 13)
	spans := &spanLog{}
	probes := []struct {
		name   string
		flops  int64
		bytes  int64
		prep   func()
		kernel func()
	}{
		{"syrk", lin.SyrkFlops(m, n), 8 * int64(m*n+n*n), func() {}, func() { lin.Syrk(1, a, 0, c) }},
		{"gemm", lin.GemmFlops(m, n, n), 8 * int64(2*m*n+n*n), func() {}, func() { lin.Gemm(false, false, 1, a, t, 0, b) }},
		{"trmm", lin.TrsmFlops(m, n), 8 * int64(2*m*n+n*n/2), func() { b.CopyFrom(a) }, func() { lin.Trmm(lin.Right, lin.Upper, false, t, b) }},
		{"householder", lin.HouseholderQRFlops(ks.hqrRows, n), 8 * int64(2*ks.hqrRows*n), func() {}, func() { _, _ = lin.HouseholderQR(h) }},
	}
	for _, p := range probes {
		p.prep()
		p.kernel() // warm caches and the pool
		name := "lin." + p.name
		start := time.Now()
		for calls := 0; calls < 5 || time.Since(start) < probeBudget; calls++ {
			p.prep()
			sp := spans.begin(name)
			p.kernel()
			spans.end(sp)
		}
		d := spans.durations(name)
		sec := median(d) / 1e3
		out.set(name+".gflops", float64(p.flops)/sec/1e9)
		out.set(name+".flops_per_byte", float64(p.flops)/float64(p.bytes))
		shape := fmt.Sprintf("%dx%d", m, n)
		if p.name == "householder" {
			shape = fmt.Sprintf("%dx%d", ks.hqrRows, n)
		}
		out.logf("kernel %-11s %s: median %.3f ms of %d calls, %.2f GFLOP/s, %.2f flops/byte (computed)",
			p.name, shape, median(d), len(d), float64(p.flops)/sec/1e9, float64(p.flops)/float64(p.bytes))
	}
}

// ---- CPU profile fold ----

// cpuBuckets maps CPU-profile samples to the cpu_share.* buckets. The
// rules apply in this order, and the first that matches wins:
//
//  1. gc: any frame of the stack is a garbage-collector entry point
//     (gcRoots), so mark, assist, sweep and scavenge work counts as gc
//     whatever its leaf.
//  2. memclr: the leaf is runtime.memclr* (zeroing fresh buffers).
//  3. memmove: the leaf is runtime.memmove (copies).
//  4. syscall: the leaf is in a system-call or poller package
//     (syscallPkgs) or is the runtime's network poller.
//  5. codec: any frame is in an encoding/* package (JSON, base64, gob
//     framing and their reflection and allocation underneath).
//  6. otherwise the leaf's package: cacqr/internal/<p> → <p> (the
//     transport/tcpnet package → tcpnet), the root cacqr package → api,
//     this command → bench, other runtime frames → runtime, anything
//     else → other.
var gcRoots = []string{
	"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.bgsweep",
	"runtime.bgscavenge", "runtime.gcStart", "runtime.GC", "runtime.markroot",
}

var syscallPkgs = []string{"syscall", "internal/runtime/syscall", "runtime/internal/syscall", "internal/poll", "net"}

// bucketOf classifies one sample's stack, leaf first.
func bucketOf(stack []string) string {
	for _, f := range stack {
		for _, g := range gcRoots {
			if f == g {
				return "gc"
			}
		}
	}
	leaf := stack[0]
	switch {
	case strings.HasPrefix(leaf, "runtime.memclr"):
		return "memclr"
	case strings.HasPrefix(leaf, "runtime.memmove"):
		return "memmove"
	case leaf == "runtime.netpoll" || leaf == "runtime.epollwait":
		return "syscall"
	}
	pkg := funcPackage(leaf)
	for _, s := range syscallPkgs {
		if pkg == s {
			return "syscall"
		}
	}
	for _, f := range stack {
		if strings.HasPrefix(funcPackage(f), "encoding/") {
			return "codec"
		}
	}
	switch {
	case pkg == "cacqr/internal/transport/tcpnet":
		return "tcpnet"
	case strings.HasPrefix(pkg, "cacqr/internal/"):
		return strings.SplitN(strings.TrimPrefix(pkg, "cacqr/internal/"), "/", 2)[0]
	case pkg == "cacqr":
		return "api"
	case pkg == "main":
		return "bench"
	case pkg == "runtime":
		return "runtime"
	}
	return "other"
}

// funcPackage returns the import path of a symbol name such as
// "cacqr/internal/lin.(*Matrix).At".
func funcPackage(sym string) string {
	slash := strings.LastIndex(sym, "/")
	dot := strings.Index(sym[slash+1:], ".")
	if dot < 0 {
		return sym
	}
	return sym[:slash+1+dot]
}

// cpuProfile is a folded CPU profile: CPU nanoseconds by bucket.
type cpuProfile struct {
	byBucket map[string]int64
	total    int64
}

// profileCPU runs fn under the CPU profiler and folds the profile.
func profileCPU(fn func()) (*cpuProfile, error) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return nil, err
	}
	fn()
	pprof.StopCPUProfile()
	return foldProfile(buf.Bytes())
}

// report sets the cpu_share.* metrics and logs every bucket.
func (p *cpuProfile) report(out *outcome) {
	for _, b := range []string{"lin", "memclr", "memmove", "gc", "dist", "simmpi", "tcpnet", "codec", "syscall", "core", "cfr3d", "mm3d", "stream"} {
		out.set("cpu_share."+b, ratio(float64(p.byBucket[b]), float64(p.total)))
	}
	names := make([]string, 0, len(p.byBucket))
	for b := range p.byBucket {
		names = append(names, b)
	}
	sort.Slice(names, func(i, j int) bool { return p.byBucket[names[i]] > p.byBucket[names[j]] })
	var parts []string
	for _, b := range names {
		parts = append(parts, fmt.Sprintf("%s %.1f%%", b, 100*ratio(float64(p.byBucket[b]), float64(p.total))))
	}
	out.logf("cpu profile: %.2f CPU-s sampled; %s", float64(p.total)/1e9, strings.Join(parts, ", "))
}

// foldProfile decodes a gzipped pprof CPU profile (the profile.proto
// wire format, decoded by hand to stay within the standard library)
// and sums each sample's CPU time into its bucket.
func foldProfile(gz []byte) (*cpuProfile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	type sample struct {
		locs   []uint64
		values []int64
	}
	var (
		samples   []sample
		strs      []string
		funcName  = map[uint64]int64{}    // function id → string index
		locFuncs  = map[uint64][]uint64{} // location id → function ids, innermost first
		decodeErr error
	)
	err = pbFields(raw, func(num int, v uint64, data []byte) {
		switch num {
		case 2: // sample
			var s sample
			decodeErr = firstErr(decodeErr, pbFields(data, func(num int, v uint64, data []byte) {
				switch num {
				case 1:
					s.locs = append(s.locs, pbPacked(v, data)...)
				case 2:
					for _, x := range pbPacked(v, data) {
						s.values = append(s.values, int64(x))
					}
				}
			}))
			samples = append(samples, s)
		case 4: // location
			var id uint64
			var fns []uint64
			decodeErr = firstErr(decodeErr, pbFields(data, func(num int, v uint64, data []byte) {
				switch num {
				case 1:
					id = v
				case 4: // line
					decodeErr = firstErr(decodeErr, pbFields(data, func(num int, v uint64, _ []byte) {
						if num == 1 {
							fns = append(fns, v)
						}
					}))
				}
			}))
			locFuncs[id] = fns
		case 5: // function
			var id uint64
			var name int64
			decodeErr = firstErr(decodeErr, pbFields(data, func(num int, v uint64, _ []byte) {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
			}))
			funcName[id] = name
		case 6: // string table
			strs = append(strs, string(data))
		}
	})
	if err = firstErr(err, decodeErr); err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	p := &cpuProfile{byBucket: map[string]int64{}}
	for _, s := range samples {
		if len(s.values) < 2 || len(s.locs) == 0 {
			continue
		}
		var stack []string
		for _, l := range s.locs {
			for _, f := range locFuncs[l] {
				if i := funcName[f]; i >= 0 && int(i) < len(strs) {
					stack = append(stack, strs[i])
				}
			}
		}
		if len(stack) == 0 {
			continue
		}
		ns := s.values[1] // values are [samples, cpu nanoseconds]
		p.byBucket[bucketOf(stack)] += ns
		p.total += ns
	}
	return p, nil
}

func firstErr(a, b error) error {
	if a != nil {
		return a
	}
	return b
}

// pbFields walks one protobuf message, calling fn with each field's
// number and its varint value (wire types 0, 1, 5) or its bytes (wire
// type 2).
func pbFields(b []byte, fn func(num int, v uint64, data []byte)) error {
	for len(b) > 0 {
		key, n := pbVarint(b)
		if n <= 0 {
			return fmt.Errorf("bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := pbVarint(b)
			if n <= 0 {
				return fmt.Errorf("bad varint")
			}
			b = b[n:]
			fn(num, v, nil)
		case 1:
			if len(b) < 8 {
				return fmt.Errorf("short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := pbVarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return fmt.Errorf("bad length")
			}
			fn(num, 0, b[n:n+int(l)])
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return fmt.Errorf("short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
	}
	return nil
}

// pbPacked returns a repeated varint field's values: the single value
// v when unpacked (data == nil), else the packed run in data.
func pbPacked(v uint64, data []byte) []uint64 {
	if data == nil {
		return []uint64{v}
	}
	var out []uint64
	for len(data) > 0 {
		x, n := pbVarint(data)
		if n <= 0 {
			break
		}
		out = append(out, x)
		data = data[n:]
	}
	return out
}

func pbVarint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}
