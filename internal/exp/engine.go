package exp

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"semloc/internal/core"
	"semloc/internal/harness"
	"semloc/internal/prefetch"
	"semloc/internal/sim"
)

// Job is one cell of an experiment matrix: a (workload, prefetcher,
// sweep-point) triple. Two flavours exist:
//
//   - Config == nil: a named run. The job goes through the Runner's
//     memoized Result path, so a job that several figures share (e.g.
//     "mcf"/"none") simulates once no matter how many batches request it.
//   - Config != nil: a parameterised context-prefetcher run (sweeps,
//     sensitivity studies). These are never memoized — each job builds a
//     fresh prefetcher from the config, with its RNG seed derived from
//     (base seed, workload, prefetcher, point) so the result is a pure
//     function of the job, not of scheduling order or sibling jobs.
type Job struct {
	// Workload is the trace to replay (Table 3 name).
	Workload string
	// Prefetcher is the prefetcher name. For Config jobs it only labels
	// the run and salts the derived seed.
	Prefetcher string
	// Point is the sweep-point index (0 for non-sweep jobs); it salts the
	// derived seed so two points with identical configs still get
	// independent exploration streams.
	Point int
	// Config, when non-nil, requests a fresh context-prefetcher run with
	// this configuration (its Seed field is overwritten by the derived
	// seed).
	Config *core.Config
}

// JobResult pairs a Job with its outcome. Results come back indexed by the
// position of the job in the submitted slice — never by completion order —
// which is half of the engine's determinism contract (the other half is
// seed derivation).
type JobResult struct {
	// Job echoes the submitted job.
	Job Job
	// Index is the job's position in the slice passed to RunJobs.
	Index int
	// Result is the simulation result (nil when Err is set).
	Result *sim.Result
	// Prefetcher is the prefetcher instance the run used — populated only
	// for Config jobs, where callers need post-run learned state (metrics,
	// accuracy). Named runs share memoized results across callers, so
	// exposing their instance would invite cross-run mutation.
	Prefetcher prefetch.Prefetcher
	// Err is the job's failure, if any. One failed job never aborts its
	// siblings: callers get every completed result plus every error.
	Err error
}

// DeriveSeed maps (base seed, workload, prefetcher, point) to the RNG seed
// for that run. The derivation is pure and order-free, which is what makes
// the parallel engine deterministic: a run's random stream depends only on
// the job's coordinates, never on which worker picked it up or how many
// jobs ran before it. Sequential and parallel schedules therefore produce
// bit-identical results.
//
// The map is FNV-1a over the coordinates followed by a splitmix64-style
// finalizer (the FNV lattice alone is too linear for seeds that differ in
// one trailing byte). Never returns 0, so a derived seed survives
// "0 means use default" checks unchanged.
func DeriveSeed(base uint64, workload, prefetcher string, point int) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(b byte) { h = (h ^ uint64(b)) * prime64 }
	for i := 0; i < 8; i++ {
		mix(byte(base >> (8 * i)))
	}
	for i := 0; i < len(workload); i++ {
		mix(workload[i])
	}
	mix(0)
	for i := 0; i < len(prefetcher); i++ {
		mix(prefetcher[i])
	}
	mix(0)
	for i := 0; i < 8; i++ {
		mix(byte(uint64(point) >> (8 * i)))
	}
	// splitmix64 finalizer.
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	if h == 0 {
		h = 1
	}
	return h
}

// contextConfigFor builds the configuration for a named context-prefetcher
// run, with the exploration seed derived from the run's coordinates. Named
// context variants share DefaultConfig parameters; only the bandit policy
// and the seed differ.
func contextConfigFor(name, workload string, base uint64) (core.Config, error) {
	cfg := core.DefaultConfig()
	if name != "context" {
		pol, err := core.ParsePolicy(strings.TrimPrefix(name, "context-"))
		if err != nil {
			return core.Config{}, err
		}
		cfg.Policy = pol
	}
	cfg.Seed = DeriveSeed(base, workload, name, 0)
	return cfg, nil
}

// isContextName reports whether a prefetcher name is a context variant
// (the only prefetchers with an RNG to seed).
func isContextName(name string) bool {
	return name == "context" || strings.HasPrefix(name, "context-")
}

// RunJobs executes a job matrix on the runner's worker pool and returns one
// JobResult per job, in submission order. Parallelism is bounded by
// Options.Parallelism.
//
// Dispatch is longest trace first: RunJobs resolves each distinct
// workload's trace through the shared TraceCache (up to Parallelism at a
// time), then hands jobs to workers in descending record count, ties in
// submission order, so the batch's longest cell never starts last behind
// a queue of short ones. A named (workload, prefetcher) job submitted more
// than once runs once; every duplicate gets a copy of its result and
// error. Because results land at their submission index and seeds derive
// from job coordinates, the order changes only wall time: the outputs are
// bit-identical to any other schedule of the same slice, at any
// parallelism. A workload whose trace fails to resolve sorts last, and its
// jobs report the memoized error as they run.
//
// Individual job failures land in their JobResult.Err and do not stop the
// batch (cancellation does, via the per-run harness). The returned error
// reports batch-level corruption only: a shared cached trace that changed
// checksum during the batch, meaning some run wrote to memory every other
// run was reading.
func (r *Runner) RunJobs(jobs []Job) ([]JobResult, error) {
	out := make([]JobResult, len(jobs))
	r.met.batchSubmitted(len(jobs))
	order, twins := r.schedule(jobs)
	parallelFor(len(order), cap(r.sem), func(k int) {
		i := order[k]
		out[i] = r.runJob(i, jobs[i])
		r.met.jobFinished(&out[i])
		for _, d := range twins[i] {
			out[d] = JobResult{Job: jobs[d], Index: d, Result: out[i].Result, Err: out[i].Err}
			r.met.jobFinished(&out[d])
		}
	})
	if err := r.traces.VerifyImmutable(cap(r.sem)); err != nil {
		return out, err
	}
	return out, nil
}

// namedJob keys a named run for deduplication, as the Result memo does.
type namedJob struct{ workload, prefetcher string }

// schedule returns the indexes of the jobs to run, longest trace first
// with ties in submission order, and maps each named job that was
// submitted more than once to the indexes of its later duplicates.
func (r *Runner) schedule(jobs []Job) (order []int, twins map[int][]int) {
	first := make(map[namedJob]int)
	twins = make(map[int][]int)
	slot := make(map[string]int) // workload -> index into workloads
	var workloads []string
	for i, j := range jobs {
		if _, ok := slot[j.Workload]; !ok {
			slot[j.Workload] = len(workloads)
			workloads = append(workloads, j.Workload)
		}
		if j.Config == nil {
			key := namedJob{j.Workload, j.Prefetcher}
			if p, ok := first[key]; ok {
				twins[p] = append(twins[p], i)
				continue
			}
			first[key] = i
		}
		order = append(order, i)
	}
	// An unresolved trace counts -1 records and sorts last; its error is
	// memoized (or, if cancelled, recurs) when the job asks for the trace.
	records := make([]int, len(workloads))
	parallelFor(len(workloads), cap(r.sem), func(k int) {
		records[k] = -1
		if tr, err := r.Trace(workloads[k]); err == nil {
			records[k] = len(tr.Records)
		}
	})
	sort.SliceStable(order, func(a, b int) bool {
		return records[slot[jobs[order[a]].Workload]] > records[slot[jobs[order[b]].Workload]]
	})
	return order, twins
}

// parallelFor calls f(k) for every k in [0, n) from up to workers
// goroutines, handing out k in increasing order, and returns once every
// call has.
func parallelFor(n, workers int, f func(k int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < min(workers, n); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := int(next.Add(1)) - 1; k < n; k = int(next.Add(1)) - 1 {
				f(k)
			}
		}()
	}
	wg.Wait()
}

// runJob dispatches one job to the memoized or the parameterised path.
func (r *Runner) runJob(index int, job Job) JobResult {
	jr := JobResult{Job: job, Index: index}
	if job.Config == nil {
		jr.Result, jr.Err = r.Result(job.Workload, job.Prefetcher)
		return jr
	}
	jr.Result, jr.Prefetcher, jr.Err = r.runConfig(job)
	return jr
}

// runConfig runs one parameterised context-prefetcher job: fresh
// prefetcher, derived seed, pooled scratch, no memoization. Telemetry and
// artifact persistence are intentionally not applied here — sweep points
// are throwaway measurements, and the artifact namespace is keyed by
// (workload, prefetcher name) which a sweep would collide all over.
func (r *Runner) runConfig(job Job) (*sim.Result, prefetch.Prefetcher, error) {
	ct := r.beginCell(job.Workload, job.Prefetcher, job.Point)
	tr, err := r.Trace(job.Workload)
	if err != nil {
		ct.finish(nil, err)
		return nil, nil, err
	}
	ct.decodeDone()
	cfg := *job.Config
	cfg.Seed = DeriveSeed(r.opts.Seed, job.Workload, job.Prefetcher, job.Point)
	pf, err := core.New(cfg)
	if err != nil {
		err = fmt.Errorf("exp: %s/%s[%d]: %w", job.Workload, job.Prefetcher, job.Point, err)
		ct.finish(nil, err)
		return nil, nil, err
	}
	ct.queueStart()
	select {
	case r.sem <- struct{}{}:
	case <-r.ctx.Done():
		err := fmt.Errorf("exp: %s/%s[%d]: %w", job.Workload, job.Prefetcher, job.Point, context.Cause(r.ctx))
		ct.finish(nil, err)
		return nil, nil, err
	}
	ct.queueDone()
	r.met.workerAcquired()
	defer func() {
		<-r.sem
		r.met.workerReleased()
	}()

	simCfg := r.opts.Sim
	simCfg.Pool = r.pool
	ct.installWarmup(&simCfg)
	res, err := harness.Run(r.ctx, tr, pf, simCfg, r.opts.Harness)
	ct.finish(res, err)
	if err != nil {
		return nil, nil, fmt.Errorf("exp: %s/%s[%d]: %w", job.Workload, job.Prefetcher, job.Point, err)
	}
	return res, pf, nil
}
