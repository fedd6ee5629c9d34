// Command perfbench is the repository's benchmark: it runs one named
// workload for a fixed time with a given seed, checks the program's
// outputs against references it computes itself, and prints the
// end-to-end metrics (or, with --trace 1, the per-layer metrics) as the
// last line of standard output:
//
//	{"correct": true, "attempted": 1000, "failed": 0, "metrics": {"setup_s": {"value": 0.81, "unit": "s"}, ...}}
//
// Workloads:
//
//	apply           tdgraph.Session on the native engine, SSSP over an
//	                RMAT graph: tiny batches, periodic bursts, a query
//	                after every batch.
//	paper-fig       bench.Run cells of Fig 10's software schemes on the
//	                simulated 64-core machine.
//
// Run it through run.sh, which builds it from the checkout's sources.
// See README.md for the metric definitions and reference figures.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"syscall"
	"time"
	"unsafe"
)

// outDir receives span files, relative to the checkout root.
const outDir = "perfbench/out"

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run is what a workload measured: the operation counts, the
// correctness verdict, and its metrics by name.
type run struct {
	attempted int
	failed    int
	errs      []error
	metrics   map[string]metric
}

func newRun() *run { return &run{metrics: make(map[string]metric)} }

func (r *run) set(name, unit string, v float64) { r.metrics[name] = metric{Value: v, Unit: unit} }

// check records a failed correctness check; the run goes on so every
// check is reported.
func (r *run) check(err error) {
	if err != nil {
		r.errs = append(r.errs, err)
		fmt.Fprintln(os.Stderr, "perfbench: CHECK FAILED:", err)
	}
}

// options are the command-line settings every workload receives.
type options struct {
	seed    int64
	seconds float64
	trace   bool
}

func main() {
	workload := flag.String("workload", "", "workload: apply | paper-fig")
	seed := flag.Int64("seed", 1, "seed for every generated input")
	seconds := flag.Float64("seconds", 15, "measured time per run")
	trace := flag.Int("trace", 0, "1 = traced run: per-layer metrics and tracing overhead")
	flag.Parse()
	o := options{seed: *seed, seconds: *seconds, trace: *trace == 1}
	var fn func(options) (*run, error)
	switch *workload {
	case "apply":
		fn = runApply
	case "paper-fig":
		fn = runPaperFig
	default:
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (apply | paper-fig)\n", *workload)
		os.Exit(2)
	}
	r, err := fn(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(result{Correct: len(r.errs) == 0, Attempted: r.attempted, Failed: r.failed, Metrics: r.metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (xs is sorted in place).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

func durQuantile(ds []time.Duration, q float64) time.Duration {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d)
	}
	return time.Duration(quantile(xs, q))
}

func usOf(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// cpuTime is the CPU time the process has used since it started, on all
// its threads. Bursts, rounds, cells and set-up are timed with it: the
// kernel leaves out time a virtual CPU was stolen by its host, which on a
// shared machine moves wall-clock times of stretches that long by a
// quarter or more from one run to the next. It cannot show work that
// overlaps on several CPUs or time spent waiting, so short operations —
// a tiny batch, a query — are timed in wall time, where a median over
// thousands steps around the stolen slices. setup_s is cpuTime at the
// end of set-up.
func cpuTime() time.Duration {
	const clockProcessCPUTimeID = 2 // CLOCK_PROCESS_CPUTIME_ID, nanosecond resolution
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic(fmt.Sprintf("perfbench: clock_gettime: %v", errno))
	}
	return time.Duration(ts.Nano())
}

// maxRSSMB is the process's peak resident set so far.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// commonMetrics sets the metrics every workload reports the same way.
func (r *run) commonMetrics(setup time.Duration) {
	r.set("setup_s", "s", setup.Seconds())
	r.set("max_rss_mb", "MB", maxRSSMB())
}

// overhead reports how much slower the traced half of a traced run was
// than its untraced half, in percent of the untraced figure.
func (r *run) overhead(untraced, traced time.Duration) {
	r.set("trace.overhead_pct", "%", 100*(float64(traced)-float64(untraced))/float64(untraced))
}

// writeTrace stores a traced run's spans and prints their self-time
// table to standard error.
func writeTrace(t *tracer, workload string, o options) {
	path, err := t.write(outDir, fmt.Sprintf("spans-%s-seed%d.jsonl", workload, o.seed), os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
		return
	}
	fmt.Fprintln(os.Stderr, "perfbench: spans written to", path)
}
