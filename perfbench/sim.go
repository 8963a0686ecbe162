package main

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"sort"
	"time"

	"semloc/internal/core"
	"semloc/internal/exp"
	"semloc/internal/prefetch"
	"semloc/internal/sim"
	"semloc/internal/trace"
)

// simInput is one generated trace: a Table 3 workload at a scale.
type simInput struct {
	name  string
	scale float64
}

// simSpec is a simulation workload: every input under every prefetcher,
// with "none" as the speedup baseline.
type simSpec struct {
	inputs      []simInput
	prefetchers []string
}

// simLinked is pointer-chasing code, where the context prefetcher should
// win. list at scale 0.5 sits just under the L2's capacity, where context
// loses to no prefetching (about 0.84x at seed 1): the point that moves
// sim_speedup_geomean when the learner gets better or worse.
var simLinked = simSpec{
	inputs:      []simInput{{"list", 1}, {"mcf", 1}, {"graph500-list", 1}, {"list", 0.5}},
	prefetchers: []string{"none", "context"},
}

// simRegular is regular code under the spatial baselines: the learner never
// runs, so the cache, the CPU model and the sim adapter do all the work and
// a learner optimisation should leave it unchanged.
var simRegular = simSpec{
	inputs:      []simInput{{"array", 1}, {"libquantum", 1}, {"lbm", 1}, {"sjeng", 1}},
	prefetchers: []string{"none", "sms", "ghb-gdc"},
}

// simCell is one (input, prefetcher) simulation.
type simCell struct {
	in simInput
	pf string
}

func (c simCell) String() string { return fmt.Sprintf("%s@%g/%s", c.in.name, c.in.scale, c.pf) }

// simSetup holds one set-up's generated traces, one trace cache per scale
// so the experiment runners share them.
type simSetup struct {
	scales   []float64
	caches   map[float64]*exp.TraceCache
	traces   map[simInput]*trace.Trace
	accesses map[simInput]uint64 // demand accesses simulated per cell
	gen      time.Duration
}

// scaled applies the run's scale multiplier to a spec.
func (b *bench) scaled(spec simSpec) simSpec {
	out := simSpec{prefetchers: spec.prefetchers}
	for _, in := range spec.inputs {
		out.inputs = append(out.inputs, simInput{in.name, in.scale * b.cfg.scale})
	}
	return out
}

// setupSim generates every input trace through the experiment engine's
// trace cache.
func (b *bench) setupSim(spec simSpec) (*simSetup, error) {
	st := &simSetup{
		caches:   map[float64]*exp.TraceCache{},
		traces:   map[simInput]*trace.Trace{},
		accesses: map[simInput]uint64{},
	}
	start := time.Now()
	for _, in := range spec.inputs {
		tc, ok := st.caches[in.scale]
		if !ok {
			tc = exp.NewTraceCache(in.scale, b.cfg.seed)
			st.caches[in.scale] = tc
			st.scales = append(st.scales, in.scale)
		}
		tr, err := tc.Get(context.Background(), in.name)
		if err != nil {
			return nil, err
		}
		st.traces[in] = tr
	}
	st.gen = time.Since(start)
	for in, tr := range st.traces {
		s := tr.ComputeStats()
		st.accesses[in] = s.Loads + s.Stores
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(st.scales)))
	return st, nil
}

// cells lists the matrix in submission order.
func (spec simSpec) cells() []simCell {
	var out []simCell
	for _, in := range spec.inputs {
		for _, pf := range spec.prefetchers {
			out = append(out, simCell{in, pf})
		}
	}
	return out
}

// simPass runs the whole matrix once through exp.Runner.RunJobs, one fresh
// runner per scale (named runs are memoized per runner) sharing the
// set-up's traces. It returns each cell's result and the pass's wall time.
func (b *bench) simPass(spec simSpec, st *simSetup, parallelism int, rep *report, parent int) (map[simCell]*sim.Result, time.Duration, error) {
	out := map[simCell]*sim.Result{}
	id := b.spans.begin("pass", parent)
	start := time.Now()
	for _, scale := range st.scales {
		r := exp.NewRunner(exp.Options{Scale: scale, Seed: b.cfg.seed, Parallelism: parallelism, Traces: st.caches[scale]})
		var jobs []exp.Job
		var cells []simCell
		for _, c := range spec.cells() {
			if c.in.scale == scale {
				jobs = append(jobs, exp.Job{Workload: c.in.name, Prefetcher: c.pf})
				cells = append(cells, c)
			}
		}
		res, err := r.RunJobs(jobs)
		if err != nil {
			return nil, 0, err
		}
		for i, jr := range res {
			rep.attempted++
			if jr.Err != nil {
				rep.failed++
				rep.problem("%s: %v", cells[i], jr.Err)
				continue
			}
			out[cells[i]] = jr.Result
		}
	}
	wall := time.Since(start)
	b.spans.end(id)
	return out, wall, nil
}

// passAccesses is the number of demand accesses one pass simulates.
func (spec simSpec) passAccesses(st *simSetup) uint64 {
	var n uint64
	for _, c := range spec.cells() {
		n += st.accesses[c.in]
	}
	return n
}

// sameResult compares everything a simulation reports: timing, both cache
// levels, the Figure 9 categories and the Figure 8 hit-depth histogram.
func sameResult(a, b *sim.Result) bool {
	return a.CPU == b.CPU && a.L1 == b.L1 && a.L2 == b.L2 && a.Categories == b.Categories &&
		reflect.DeepEqual(a.HitDepths, b.HitDepths)
}

// checkSame records a problem for every cell whose result differs from the
// reference (a failed cell has no result and was counted already).
func checkSame(rep *report, what string, ref, got map[simCell]*sim.Result) {
	for c, g := range got {
		if r, ok := ref[c]; ok && !sameResult(r, g) {
			rep.failed++
			rep.problem("%s: %s differs from the first pass", c, what)
		}
	}
}

// speedupGeomean is the geometric mean, over every non-baseline cell, of
// its simulated IPC over the "none" cell on the same input.
func (spec simSpec) speedupGeomean(res map[simCell]*sim.Result) float64 {
	var xs []float64
	for _, in := range spec.inputs {
		base := res[simCell{in, "none"}]
		for _, pf := range spec.prefetchers {
			got := res[simCell{in, pf}]
			if pf == "none" || base == nil || got == nil {
				continue
			}
			xs = append(xs, got.IPC()/base.IPC())
		}
	}
	return geomean(xs)
}

// simSetups is how many times a run sets up, reporting the median.
const simSetups = 3

// minSimPasses is the fewest timed passes an untraced run makes.
const minSimPasses = 3

func (b *bench) runSim(spec simSpec) (*report, error) {
	spec = b.scaled(spec)
	rep := newReport()
	rep.info["parallelism"] = b.nproc
	if b.cfg.trace {
		return rep, b.runSimTraced(spec, rep)
	}
	var st *simSetup
	var setups []float64
	for i := 0; i < simSetups; i++ {
		st = nil
		runtime.GC()
		var err error
		if st, err = b.setupSim(spec); err != nil {
			return nil, err
		}
		setups = append(setups, st.gen.Seconds())
	}
	rep.values["setup_s"] = median(setups)
	if err := startPeakRSS(); err != nil {
		return nil, err
	}

	// The first pass warms the process (heap growth, first-touch pages)
	// and is the reference every later pass must reproduce exactly. Each
	// pass starts from a collected heap, so peak RSS is the traces plus one
	// pass's garbage rather than depending on how many passes fit in the
	// run.
	ref, _, err := b.simPass(spec, st, b.nproc, rep, 0)
	if err != nil {
		return nil, err
	}
	var walls, nsPer []float64
	accesses := float64(spec.passAccesses(st))
	start := time.Now()
	for len(walls) < minSimPasses || time.Since(start) < b.cfg.seconds {
		runtime.GC()
		res, wall, err := b.simPass(spec, st, b.nproc, rep, 0)
		if err != nil {
			return nil, err
		}
		checkSame(rep, "pass", ref, res)
		walls = append(walls, float64(wall.Microseconds()))
		nsPer = append(nsPer, float64(wall.Nanoseconds())/accesses)
	}
	rep.values["ns_per_access"] = median(nsPer)
	rep.values["latency_p50_us"] = quantile(walls, 0.5)
	rep.values["latency_p99_us"] = quantile(walls, 0.99)
	rep.values["sim_speedup_geomean"] = spec.speedupGeomean(ref)
	rep.info["passes"] = len(walls)
	rep.info["accesses_per_pass"] = accesses
	return rep, nil
}

// newPrefetcher builds a cell's prefetcher the way the experiment runner
// does for a named run, so a direct sim.RunContext reproduces it exactly.
func (b *bench) newPrefetcher(c simCell) (prefetch.Prefetcher, error) {
	if c.pf != "context" {
		return exp.NewPrefetcher(c.pf)
	}
	cfg := core.DefaultConfig()
	cfg.Seed = exp.DeriveSeed(b.cfg.seed, c.in.name, c.pf, 0)
	return exp.NewContext(cfg)
}
