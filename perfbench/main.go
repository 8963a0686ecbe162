// Command perfbench is the repository benchmark. One invocation runs one
// named workload from a seed and prints every metric by name and unit; the
// last line of standard output is the JSON result:
//
//	bash perfbench/run.sh --workload sim-linked --seed 1 --seconds 15 --trace 0
//
// With --trace 0 it reports the end-to-end metrics, measured with no
// instrumentation in the measured code. With --trace 1 it reports the
// per-layer metrics from a separate traced run: a replay ladder over the
// simulator (prefetcher, cache, CPU model, adapter residual) or the
// server's stage histograms plus codec and learner replays, and writes
// the run's spans under .bench_build/spans when it ends.
//
// Every run checks the program's outputs (see the correctness gates in
// sim.go and serve.go); a failed gate reports "correct": false.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metricDef names one reported metric and its unit. The two lists mirror
// BENCHMARK.json's end_to_end and per_layer entries (the package test
// checks that they agree).
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"ns_per_access", "ns"},
	{"latency_p50_us", "us"},
	{"latency_p99_us", "us"},
	{"sim_speedup_geomean", "ratio"},
}

var perLayer = []metricDef{
	{"workloads.gen_s", "s"},
	{"exp.parallel_efficiency", "share"},
	{"core.ns_per_access", "ns"},
	{"core.prefetches_per_access", "count/access"},
	{"core.shadows_per_access", "count/access"},
	{"core.accurate_ratio", "share"},
	{"prefetch.ns_per_access", "ns"},
	{"cache.ns_per_op", "ns"},
	{"cache.l1_miss_ratio", "share"},
	{"cache.l2_mpki", "misses/kinst"},
	{"cache.prefetch_useless_ratio", "share"},
	{"cpu.ns_per_record", "ns"},
	{"sim.adapter_ns_per_access", "ns"},
	{"codec.encode_ns_per_access", "ns"},
	{"codec.decode_ns_per_access", "ns"},
	{"codec.allocs_per_access", "allocs/access"},
	{"serve.decide_ns_per_access", "ns"},
	{"serve.queue_wait_us", "us"},
	{"serve.write_us", "us"},
	{"serve.frame_us", "us"},
	{"serve.batch_size_mean", "count"},
	{"client.overhead_us", "us"},
	{"tracing.overhead_share", "share"},
	{"failed_share", "share"},
}

// config is one invocation's settings.
type config struct {
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool
	// spanDir receives the traced run's span file.
	spanDir string
	// scale multiplies every workload scale; 1 except in the package's
	// short-mode test, which shrinks the inputs to keep the test quick.
	scale float64
}

// bench carries one run's shared state.
type bench struct {
	cfg   config
	nproc int
	spans *spanLog // nil unless tracing
}

// report is what a workload run produces. Metric values not set by a
// workload read as zero: that layer does no work on that workload.
type report struct {
	attempted uint64
	failed    uint64
	problems  []string
	values    map[string]float64
	// info is printed on its own line before the result.
	info map[string]any
}

func newReport() *report {
	return &report{values: map[string]float64{}, info: map[string]any{}}
}

// problem records a failed correctness check.
func (r *report) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// benchWorkloads maps each benchmark workload name to its run function.
var benchWorkloads = map[string]func(*bench) (*report, error){
	"sim-linked":    func(b *bench) (*report, error) { return b.runSim(simLinked) },
	"sim-regular":   func(b *bench) (*report, error) { return b.runSim(simRegular) },
	"serve-batch16": func(b *bench) (*report, error) { return b.runServe(16) },
}

func main() {
	cfg, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	if err := run(cfg, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func parseFlags(args []string) (config, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload name")
	seed := fs.Uint64("seed", 1, "input seed (0 is treated as 1, as everywhere in the repo)")
	seconds := fs.Float64("seconds", 15, "measured seconds per run")
	trace := fs.Int("trace", 0, "1: traced run reporting per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return config{}, err
	}
	if _, ok := benchWorkloads[*workload]; !ok {
		return config{}, fmt.Errorf("unknown --workload %q", *workload)
	}
	if *seconds < 0 || *trace < 0 || *trace > 1 {
		return config{}, fmt.Errorf("--seconds must be >= 0 and --trace 0 or 1")
	}
	s := *seed
	if s == 0 {
		s = 1
	}
	return config{
		workload: *workload,
		seed:     s,
		seconds:  time.Duration(*seconds * float64(time.Second)),
		trace:    *trace == 1,
		spanDir:  filepath.Join(".bench_build", "spans"),
		scale:    1,
	}, nil
}

// result is the final output line's schema.
type result struct {
	Correct   bool                  `json:"correct"`
	Attempted uint64                `json:"attempted"`
	Failed    uint64                `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func run(cfg config, stdout io.Writer) error {
	b := &bench{cfg: cfg, nproc: runtime.NumCPU()}
	runtime.GOMAXPROCS(b.nproc)
	if cfg.trace {
		b.spans = newSpanLog()
	}
	rep, err := benchWorkloads[cfg.workload](b)
	if err != nil {
		return err
	}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
		if rep.attempted > 0 {
			rep.values["failed_share"] = float64(rep.failed) / float64(rep.attempted)
		}
	} else {
		rss, err := peakRSSMB()
		if err != nil {
			return err
		}
		rep.values["peak_rss_mb"] = rss
	}
	out := result{
		Correct:   len(rep.problems) == 0 && rep.failed == 0 && rep.attempted > 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   map[string]metricJSON{},
	}
	for _, d := range defs {
		v := rep.values[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			rep.problem("metric %s is not finite", d.name)
			out.Correct = false
			v = 0
		}
		out.Metrics[d.name] = metricJSON{Value: v, Unit: d.unit}
	}
	for _, p := range rep.problems {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", p)
	}
	if b.spans != nil {
		path := filepath.Join(cfg.spanDir, fmt.Sprintf("%s-seed%d.json", cfg.workload, cfg.seed))
		if err := b.spans.write(path); err != nil {
			return err
		}
	}
	rep.info["workload"] = cfg.workload
	rep.info["seed"] = cfg.seed
	rep.info["seconds"] = cfg.seconds.Seconds()
	rep.info["trace"] = cfg.trace
	rep.info["nproc"] = b.nproc
	rep.info["gomaxprocs"] = runtime.GOMAXPROCS(0)
	rep.info["go"] = runtime.Version()
	w := bufio.NewWriter(stdout)
	enc := json.NewEncoder(w)
	if err := enc.Encode(map[string]any{"run": rep.info}); err != nil {
		return err
	}
	if err := enc.Encode(out); err != nil {
		return err
	}
	return w.Flush()
}

// startPeakRSS returns freed memory to the OS and restarts the kernel's
// peak-RSS counter, so peak_rss_mb covers the measured phase: the set-ups'
// transient garbage peaks wherever the collector happens to run.
func startPeakRSS() error {
	debug.FreeOSMemory()
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("peak RSS: %w", err)
	}
	return nil
}

// peakRSSMB reads the process's peak resident set size (VmHWM).
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("peak RSS: no VmHWM in /proc/self/status")
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (xs need not be sorted; it is not modified).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// ratio divides, reading 0/0 as 0 (a layer that did no work).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
