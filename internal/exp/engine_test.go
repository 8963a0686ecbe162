package exp

import (
	"bytes"
	"reflect"
	"sort"
	"strings"
	"testing"

	"semloc/internal/core"
	"semloc/internal/obs"
	"semloc/internal/trace"
)

// engineRunner builds a tiny-scale runner at a fixed parallelism.
func engineRunner(par int) *Runner {
	opts := DefaultOptions()
	opts.Scale = 0.02
	opts.Parallelism = par
	return NewRunner(opts)
}

// engineJobs is a mixed matrix: shared named runs (memoized path) plus a
// small parameterised sweep (fresh-run path), with a deliberate duplicate
// named job and a failing job in the middle. The last job replays mcf,
// whose trace is longer than array's and list's (which tie), so
// longest-trace-first dispatch moves it to the front.
func engineJobs() []Job {
	cfgA := core.DefaultConfig()
	cfgA.CSTEntries, cfgA.ReducerEntries = 512, 4096
	cfgB := core.DefaultConfig()
	cfgB.Epsilon = 0.25
	return []Job{
		{Workload: "array", Prefetcher: "none"},
		{Workload: "list", Prefetcher: "none"},
		{Workload: "list", Prefetcher: "context"},
		{Workload: "array", Prefetcher: "none"}, // duplicate: must memoize, not re-run
		{Workload: "list", Prefetcher: "no-such-prefetcher"},
		{Workload: "array", Prefetcher: "context", Point: 0, Config: &cfgA},
		{Workload: "array", Prefetcher: "context", Point: 1, Config: &cfgB},
		{Workload: "list", Prefetcher: "context", Point: 0, Config: &cfgA},
		{Workload: "mcf", Prefetcher: "context"},
	}
}

// TestRunJobsParallelMatchesSequential is the engine's golden determinism
// test: the same job slice run at parallelism 1 and parallelism 8 must
// produce structurally identical results, job for job.
func TestRunJobsParallelMatchesSequential(t *testing.T) {
	seq, seqErr := engineRunner(1).RunJobs(engineJobs())
	par, parErr := engineRunner(8).RunJobs(engineJobs())
	if seqErr != nil || parErr != nil {
		t.Fatalf("RunJobs errors: seq=%v par=%v", seqErr, parErr)
	}
	if len(seq) != len(par) {
		t.Fatalf("result lengths differ: %d vs %d", len(seq), len(par))
	}
	for i := range seq {
		if (seq[i].Err == nil) != (par[i].Err == nil) {
			t.Fatalf("job %d: error mismatch: seq=%v par=%v", i, seq[i].Err, par[i].Err)
		}
		if seq[i].Err != nil {
			continue
		}
		if !reflect.DeepEqual(seq[i].Result, par[i].Result) {
			t.Errorf("job %d (%s/%s[%d]): sequential and parallel results differ",
				i, seq[i].Job.Workload, seq[i].Job.Prefetcher, seq[i].Job.Point)
		}
	}
}

// TestSharedTraceCacheMatchesFresh runs the matrix on successive runners
// sharing one TraceCache, as a repeated benchmark pass does: later runners
// reuse the cache's pooled scratch and memoized branch histories, and must
// still reproduce a runner with a cache of its own, job for job.
func TestSharedTraceCacheMatchesFresh(t *testing.T) {
	jobs := append(engineJobs(), Job{Workload: "array", Prefetcher: "ghb-gdc"}, Job{Workload: "list", Prefetcher: "sms"})
	want, err := engineRunner(1).RunJobs(jobs)
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.Scale = 0.02
	opts.Traces = NewTraceCache(opts.Scale, opts.Seed)
	for _, par := range []int{2, 1, 2} {
		opts.Parallelism = par
		got, err := NewRunner(opts).RunJobs(jobs)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if (got[i].Err == nil) != (want[i].Err == nil) || !reflect.DeepEqual(got[i].Result, want[i].Result) {
				t.Errorf("parallelism %d, job %d (%s/%s[%d]): shared-cache result differs from a fresh runner's",
					par, i, jobs[i].Workload, jobs[i].Prefetcher, jobs[i].Point)
			}
		}
	}
}

// TestRunJobsContract pins the engine's per-job semantics: results indexed
// by submission order, failures isolated, duplicates memoized, and
// parameterised jobs exposing their prefetcher instance.
func TestRunJobsContract(t *testing.T) {
	r := engineRunner(4)
	results, err := r.RunJobs(engineJobs())
	if err != nil {
		t.Fatal(err)
	}
	for i, jr := range results {
		if jr.Index != i {
			t.Errorf("result %d carries index %d", i, jr.Index)
		}
	}
	if results[4].Err == nil {
		t.Error("unknown-prefetcher job did not fail")
	}
	for i, jr := range results {
		if i == 4 {
			continue
		}
		if jr.Err != nil {
			t.Errorf("job %d failed alongside the bad job: %v", i, jr.Err)
		}
	}
	if results[0].Result == nil || results[3].Result != results[0].Result {
		t.Error("duplicate named job did not share the memoized result")
	}
	if results[5].Prefetcher == nil {
		t.Error("parameterised job did not expose its prefetcher instance")
	}
	if results[2].Prefetcher != nil {
		t.Error("named job leaked its (shared) prefetcher instance")
	}
}

// TestRunJobsDispatchOrder checks longest-trace-first dispatch: at
// parallelism 1 the cell spans start in descending record count, ties in
// submission order, and the duplicate named job never runs a cell of its
// own.
func TestRunJobsDispatchOrder(t *testing.T) {
	opts := DefaultOptions()
	opts.Scale = 0.02
	opts.Parallelism = 1
	opts.Spans = obs.NewSpanRecorder()
	r := NewRunner(opts)
	jobs := engineJobs()
	if _, err := r.RunJobs(jobs); err != nil {
		t.Fatal(err)
	}

	records := func(w string) int {
		tr, err := r.Trace(w)
		if err != nil {
			t.Fatal(err)
		}
		return len(tr.Records)
	}
	var want []Job
	seen := map[namedJob]bool{}
	for _, j := range jobs {
		if j.Config == nil {
			if seen[namedJob{j.Workload, j.Prefetcher}] {
				continue
			}
			seen[namedJob{j.Workload, j.Prefetcher}] = true
		}
		want = append(want, j)
	}
	submitted := append([]Job(nil), want...)
	sort.SliceStable(want, func(a, b int) bool { return records(want[a].Workload) > records(want[b].Workload) })
	if reflect.DeepEqual(want, submitted) {
		t.Fatal("engineJobs no longer has unequal trace lengths out of order; the test proves nothing")
	}

	var got []Job
	for _, s := range opts.Spans.Spans() {
		if s.Cat == obs.CatRun {
			got = append(got, Job{Workload: s.Workload, Prefetcher: s.Prefetcher, Point: s.Point})
		}
	}
	if len(got) != len(want) {
		t.Fatalf("%d cell spans, want %d (one per distinct job)", len(got), len(want))
	}
	for k := range want {
		if w := want[k]; got[k] != (Job{Workload: w.Workload, Prefetcher: w.Prefetcher, Point: w.Point}) {
			t.Errorf("cell %d started %s/%s[%d], want %s/%s[%d]",
				k, got[k].Workload, got[k].Prefetcher, got[k].Point, w.Workload, w.Prefetcher, w.Point)
		}
	}
}

// TestRunJobsDerivedSeedsIndependent checks that two sweep points with
// byte-identical configs still explore independently (their seeds derive
// from the point index), while re-running the same point reproduces it.
func TestRunJobsDerivedSeedsIndependent(t *testing.T) {
	cfg := core.DefaultConfig()
	jobs := []Job{
		{Workload: "list", Prefetcher: "context", Point: 0, Config: &cfg},
		{Workload: "list", Prefetcher: "context", Point: 1, Config: &cfg},
		{Workload: "list", Prefetcher: "context", Point: 0, Config: &cfg},
	}
	r := engineRunner(2)
	results, err := r.RunJobs(jobs)
	if err != nil {
		t.Fatal(err)
	}
	for i, jr := range results {
		if jr.Err != nil {
			t.Fatalf("job %d: %v", i, jr.Err)
		}
	}
	if !reflect.DeepEqual(results[0].Result, results[2].Result) {
		t.Error("re-running the same sweep point produced a different result")
	}
	// Different points get different exploration streams. (Equal final
	// Results are astronomically unlikely but not impossible; assert on the
	// seeds, which is the property actually promised.)
	s0 := DeriveSeed(r.Options().Seed, "list", "context", 0)
	s1 := DeriveSeed(r.Options().Seed, "list", "context", 1)
	if s0 == s1 {
		t.Error("DeriveSeed ignored the point index")
	}
}

// TestDeriveSeedProperties pins the seed map: deterministic, sensitive to
// every coordinate, never zero, and free of the delimiter ambiguity that a
// naive string concatenation would have.
func TestDeriveSeedProperties(t *testing.T) {
	base := DeriveSeed(1, "list", "context", 0)
	if base == 0 {
		t.Fatal("DeriveSeed returned 0")
	}
	if DeriveSeed(1, "list", "context", 0) != base {
		t.Error("DeriveSeed is not deterministic")
	}
	variants := map[string]uint64{
		"base":       DeriveSeed(2, "list", "context", 0),
		"workload":   DeriveSeed(1, "mcf", "context", 0),
		"prefetcher": DeriveSeed(1, "list", "context-ucb", 0),
		"point":      DeriveSeed(1, "list", "context", 1),
		// "lis"+"tcontext" vs "list"+"context": the separator must matter.
		"boundary": DeriveSeed(1, "lis", "tcontext", 0),
	}
	for name, v := range variants {
		if v == base {
			t.Errorf("DeriveSeed insensitive to %s coordinate", name)
		}
	}
}

// TestTraceImmutabilityGuard mutates one of several cached shared traces
// and checks the engine, re-hashing them in parallel, refuses to hand
// results back silently and names the mutated trace.
func TestTraceImmutabilityGuard(t *testing.T) {
	r := engineRunner(2)
	var tr *trace.Trace
	for _, w := range []string{"array", "list", "mcf"} {
		var err error
		if tr, err = r.Trace(w); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.Traces().VerifyImmutable(2); err != nil {
		t.Fatalf("pristine cache failed verification: %v", err)
	}
	tr.Records[0].Addr ^= 0x40 // simulated stray write by a buggy run
	_, err := r.RunJobs([]Job{{Workload: "array", Prefetcher: "none"}})
	if err == nil {
		t.Fatal("RunJobs returned no error after a cached trace was mutated")
	}
	if !strings.Contains(err.Error(), `"mcf"`) {
		t.Fatalf("error does not name the mutated trace: %v", err)
	}
}

// TestExperimentOutputDeterministic renders a full simulation-backed
// experiment at parallelism 1 and 8 and requires byte-identical output —
// the end-to-end version of the engine's determinism contract, covering
// fig13's parameterised sweep path.
func TestExperimentOutputDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-matrix experiment at two parallelism levels")
	}
	render := func(par int) string {
		var buf bytes.Buffer
		if err := RunFig13(engineRunner(par), &buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	seq := render(1)
	par := render(8)
	if seq != par {
		t.Errorf("fig13 output differs between -parallel 1 and 8:\n--- seq ---\n%s\n--- par ---\n%s", seq, par)
	}
}

// TestPrewarmJobsDedup checks that named jobs shared between experiments
// collapse to one entry while parameterised jobs all survive.
func TestPrewarmJobsDedup(t *testing.T) {
	var fig10, fig12, fig13x Experiment
	for _, e := range Experiments() {
		switch e.ID {
		case "fig10":
			fig10 = e
		case "fig12":
			fig12 = e
		case "fig13":
			fig13x = e
		}
	}
	both := PrewarmJobs([]Experiment{fig10, fig12})
	one := PrewarmJobs([]Experiment{fig10})
	if len(both) != len(one) {
		t.Errorf("fig10+fig12 prewarm has %d jobs, fig10 alone %d; identical matrices must dedup", len(both), len(one))
	}
	// Parameterised sweep jobs are not memoizable and must not be
	// prewarmed; the sweep's shared named baselines must be.
	sweep := PrewarmJobs([]Experiment{fig13x})
	if len(sweep) != len(fig13Workloads) {
		t.Errorf("fig13 prewarm has %d jobs, want %d named baselines", len(sweep), len(fig13Workloads))
	}
	for _, j := range sweep {
		if j.Config != nil {
			t.Errorf("parameterised job %s[%d] leaked into the prewarm batch", j.Workload, j.Point)
		}
	}
}
