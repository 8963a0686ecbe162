package main

import (
	"context"
	"fmt"
	"sync"
	"time"

	"semloc/internal/cache"
	"semloc/internal/core"
	"semloc/internal/cpu"
	"semloc/internal/memmodel"
	"semloc/internal/prefetch"
	"semloc/internal/sim"
	"semloc/internal/trace"
)

// The replay ladder times each simulator layer from outside, through its
// public functions, over the access stream recorded from the same cell:
//
//   - timedPrefetcher wraps prefetch.Prefetcher.OnAccess and the Issuer it
//     receives, and records the demand and prefetch stream;
//   - the cache rung replays that stream into a fresh cache.New hierarchy;
//   - the CPU rung runs cpu.Run over the trace against a memory that
//     returns the completion cycles the cache rung produced.
//
// Each rung must reproduce the full run's statistics exactly, so the
// ladder is also a correctness check on the decomposition.

// demandOp is one recorded demand access.
type demandOp struct {
	addr  memmodel.Addr
	now   cache.Cycle
	store bool
}

// prefetchOp is one recorded Issuer.Prefetch call, issued while handling
// demand access `after`; ok is what the full run's hierarchy answered.
type prefetchOp struct {
	addr  memmodel.Addr
	now   cache.Cycle
	after int
	ok    bool
}

// opLog is the access stream of one cell. resetAt is the number of demand
// accesses handled when the warm-up boundary reset statistics (-1: none).
type opLog struct {
	demands    []demandOp
	prefetches []prefetchOp
	resetAt    int
	// done is the cache rung's output buffer, reused across cells.
	done []cache.Cycle
}

func (l *opLog) reset() {
	l.demands, l.prefetches, l.resetAt = l.demands[:0], l.prefetches[:0], -1
}

// timedPrefetcher is the timing decorator. It counts every call but
// times only a pseudo-random sample of them (1 in sampleEvery), since a
// clock read costs about as much as a cache access on small VMs and
// timing every call would double a context cell's host time. The
// sampled times are corrected for the clock reads inside them (see
// clock) and scaled up to all calls.
type timedPrefetcher struct {
	inner   prefetch.Prefetcher
	iss     timedIssuer
	calls   uint64
	sampled uint64
	rng     uint64
	// self is the sampled OnAccess time outside issuer calls.
	self time.Duration
	log  *opLog
}

// sampleEvery is the decorator's sampling period.
const sampleEvery = 8

func newTimedPrefetcher(inner prefetch.Prefetcher, log *opLog) *timedPrefetcher {
	t := &timedPrefetcher{inner: inner, log: log, rng: 0x9e3779b97f4a7c15}
	t.iss.owner = t
	log.reset()
	return t
}

// Name implements prefetch.Prefetcher.
func (t *timedPrefetcher) Name() string { return t.inner.Name() }

// OnAccess implements prefetch.Prefetcher.
func (t *timedPrefetcher) OnAccess(a *prefetch.Access, iss prefetch.Issuer) {
	t.log.demands = append(t.log.demands, demandOp{addr: a.Addr, now: a.Now, store: a.IsStore})
	t.iss.inner = iss
	t.calls++
	t.rng ^= t.rng << 13
	t.rng ^= t.rng >> 7
	t.rng ^= t.rng << 17
	if t.rng%sampleEvery != 0 {
		t.inner.OnAccess(a, &t.iss)
		return
	}
	t.sampled++
	t.iss.timing, t.iss.busy, t.iss.n = true, 0, 0
	start := time.Now()
	t.inner.OnAccess(a, &t.iss)
	outer := time.Since(start)
	t.iss.timing = false
	c := clock()
	inner := t.iss.busy - time.Duration(t.iss.n)*c.inside
	t.self += outer - c.inside - inner - time.Duration(t.iss.n)*c.pair
}

// ResetMetrics forwards the simulator's warm-up boundary to the wrapped
// prefetcher (the simulator only calls it on prefetchers that have it, so
// without forwarding the wrapped learner's statistics would never reset)
// and marks the boundary in the recorded stream.
func (t *timedPrefetcher) ResetMetrics() {
	if r, ok := t.inner.(interface{ ResetMetrics() }); ok {
		r.ResetMetrics()
	}
	t.log.resetAt = len(t.log.demands)
}

// selfTime estimates the wrapped prefetcher's own time over all calls:
// OnAccess minus the issuer calls it made.
func (t *timedPrefetcher) selfTime() time.Duration {
	if t.sampled == 0 {
		return 0
	}
	return time.Duration(float64(t.self) * float64(t.calls) / float64(t.sampled))
}

// timedIssuer wraps the simulator's prefetch.Issuer. It counts every call
// and, while its owner is timing a sampled access, times them too.
type timedIssuer struct {
	owner      *timedPrefetcher
	inner      prefetch.Issuer
	timing     bool
	busy       time.Duration // timed calls of the current access
	n          int           // how many
	prefetches uint64
	shadows    uint64
}

// Prefetch implements prefetch.Issuer.
func (t *timedIssuer) Prefetch(addr memmodel.Addr, now cache.Cycle) bool {
	var ok bool
	if t.timing {
		start := time.Now()
		ok = t.inner.Prefetch(addr, now)
		t.busy += time.Since(start)
		t.n++
	} else {
		ok = t.inner.Prefetch(addr, now)
	}
	t.prefetches++
	l := t.owner.log
	l.prefetches = append(l.prefetches, prefetchOp{addr: addr, now: now, after: len(l.demands) - 1, ok: ok})
	return ok
}

// Shadow implements prefetch.Issuer.
func (t *timedIssuer) Shadow(addr memmodel.Addr) {
	if t.timing {
		start := time.Now()
		t.inner.Shadow(addr)
		t.busy += time.Since(start)
		t.n++
	} else {
		t.inner.Shadow(addr)
	}
	t.shadows++
}

// FreePrefetchSlots implements prefetch.Issuer.
func (t *timedIssuer) FreePrefetchSlots(now cache.Cycle) int {
	if !t.timing {
		return t.inner.FreePrefetchSlots(now)
	}
	start := time.Now()
	n := t.inner.FreePrefetchSlots(now)
	t.busy += time.Since(start)
	t.n++
	return n
}

// clockCosts is the calibrated cost of timing an interval: inside is what
// an empty time.Now/time.Since pair measures, pair is the wall time the
// pair itself takes.
type clockCosts struct{ inside, pair time.Duration }

var (
	clockOnce sync.Once
	clockCal  clockCosts
)

// clock calibrates the clock once per process.
func clock() clockCosts {
	clockOnce.Do(func() {
		const n = 200000
		var in time.Duration
		start := time.Now()
		for i := 0; i < n; i++ {
			s := time.Now()
			in += time.Since(s)
		}
		clockCal = clockCosts{inside: in / n, pair: time.Since(start) / n}
	})
	return clockCal
}

// replayCache is the cache rung: it replays a recorded stream into h,
// resetting statistics at the recorded warm-up boundary, and returns each
// demand access's completion cycle plus the number of prefetches whose
// outcome differs from the full run's.
func replayCache(h *cache.Hierarchy, log *opLog, done []cache.Cycle) ([]cache.Cycle, int) {
	done = done[:0]
	bad := 0
	p := 0
	for i, d := range log.demands {
		if i == log.resetAt {
			h.ResetStats()
		}
		var r cache.Result
		if d.store {
			r = h.AccessWrite(d.addr, d.now)
		} else {
			r = h.Access(d.addr, d.now)
		}
		done = append(done, r.Done)
		for ; p < len(log.prefetches) && log.prefetches[p].after == i; p++ {
			op := &log.prefetches[p]
			if h.Prefetch(op.addr, op.now) != op.ok {
				bad++
			}
		}
	}
	if log.resetAt == len(log.demands) {
		h.ResetStats()
	}
	h.FinishStats()
	return done, bad
}

// replayMemory is the CPU rung's cpu.Memory: it answers each access with
// the completion cycle the cache rung produced and counts accesses the
// core issues at a different cycle than in the full run.
type replayMemory struct {
	log    *opLog
	done   []cache.Cycle
	next   int
	skewed int
}

// Access implements cpu.Memory.
func (m *replayMemory) Access(rec *trace.Record, now cache.Cycle) cache.Cycle {
	i := m.next
	m.next++
	if i >= len(m.done) {
		m.skewed++
		return now
	}
	if m.log.demands[i].now != now {
		m.skewed++
	}
	return m.done[i]
}

// layerTotals accumulates one ladder round over every cell.
type layerTotals struct {
	accesses   uint64
	untraced   time.Duration // full cells, no decorator
	traced     time.Duration // full cells under the decorator
	pfSelf     time.Duration // self time of every real prefetcher
	coreSelf   time.Duration
	coreCalls  uint64
	corePF     uint64
	coreShadow uint64
	outcomes   uint64
	accurate   uint64
	baseSelf   time.Duration // sms and ghb-gdc
	baseCalls  uint64
	cacheWall  time.Duration
	cacheOps   uint64
	cpuWall    time.Duration
	records    uint64
	l1Access   uint64
	l1Miss     uint64
	l2Miss     uint64
	instr      uint64
	pfFills    uint64
	useless    uint64
}

// ladderCell runs one cell four ways — untraced, traced, cache rung, CPU
// rung — checks each against the reference result and adds its timings.
func (b *bench) ladderCell(c simCell, tr *trace.Trace, ref *sim.Result, pool *sim.RunPool, log *opLog, tot *layerTotals, rep *report, parent int) error {
	ctx := context.Background()
	cfg := sim.DefaultConfig()
	cfg.Pool = pool
	cell := b.spans.begin(c.String(), parent)
	defer b.spans.end(cell)

	pf, err := b.newPrefetcher(c)
	if err != nil {
		return err
	}
	id := b.spans.begin("full", cell)
	start := time.Now()
	plain, err := sim.RunContext(ctx, tr, pf, cfg)
	tot.untraced += time.Since(start)
	b.spans.end(id)
	if err != nil {
		return fmt.Errorf("%s: %w", c, err)
	}
	if !sameResult(ref, plain) {
		rep.failed++
		rep.problem("%s: direct sim.RunContext differs from exp.Runner", c)
	}

	inner, err := b.newPrefetcher(c)
	if err != nil {
		return err
	}
	tp := newTimedPrefetcher(inner, log)
	id = b.spans.begin("traced", cell)
	start = time.Now()
	traced, err := sim.RunContext(ctx, tr, tp, cfg)
	tot.traced += time.Since(start)
	b.spans.end(id)
	if err != nil {
		return fmt.Errorf("%s traced: %w", c, err)
	}
	if !sameResult(ref, traced) {
		rep.failed++
		rep.problem("%s: the traced run differs from the untraced run", c)
	}
	tot.accesses += tp.calls
	switch c.pf {
	case "none":
		// A no-op: its "self time" is the decorator's own clock reads.
	case "context":
		tot.pfSelf += tp.selfTime()
		tot.coreSelf += tp.selfTime()
		tot.coreCalls += tp.calls
		tot.corePF += tp.iss.prefetches
		tot.coreShadow += tp.iss.shadows
		if lh, ok := inner.(interface{ LearnerHealth() core.LearnerHealth }); ok {
			h := lh.LearnerHealth()
			tot.accurate += h.OutcomeAccurate
			tot.outcomes += h.OutcomeAccurate + h.OutcomeLate + h.OutcomeEvicted + h.OutcomeUseless
		}
	default:
		tot.pfSelf += tp.selfTime()
		tot.baseSelf += tp.selfTime()
		tot.baseCalls += tp.calls
	}
	tot.l1Access += ref.L1.Accesses
	tot.l1Miss += ref.L1.Misses
	tot.l2Miss += ref.L2.Misses
	tot.instr += ref.CPU.Instructions
	tot.pfFills += ref.L1.Prefetches
	tot.useless += ref.L1.UselessEvicts

	h, err := cache.New(cfg.Cache)
	if err != nil {
		return err
	}
	id = b.spans.begin("cache", cell)
	start = time.Now()
	done, bad := replayCache(h, log, log.done)
	log.done = done
	tot.cacheWall += time.Since(start)
	b.spans.end(id)
	tot.cacheOps += uint64(len(log.demands) + len(log.prefetches))
	l1, l2 := h.Stats()
	if l1 != ref.L1 || l2 != ref.L2 || bad != 0 {
		rep.failed++
		rep.problem("%s: cache rung does not reproduce the full run's LevelStats (%d prefetch outcomes differ)", c, bad)
	}

	mem := &replayMemory{log: log, done: done}
	id = b.spans.begin("cpu", cell)
	start = time.Now()
	cres, err := cpu.Run(tr, mem, cfg.CPU)
	tot.cpuWall += time.Since(start)
	b.spans.end(id)
	if err != nil {
		return fmt.Errorf("%s cpu rung: %w", c, err)
	}
	tot.records += uint64(len(tr.Records))
	if cres != ref.CPU || mem.skewed != 0 || mem.next != len(done) {
		rep.failed++
		rep.problem("%s: CPU rung does not reproduce the full run (IPC %v vs %v, %d accesses issued at other cycles)",
			c, cres.IPC(), ref.CPU.IPC(), mem.skewed)
	}
	return nil
}

// runSimTraced is the traced run: rounds of one parallel RunJobs pass
// followed by the ladder over every cell, for at least one round and until
// the run's seconds are spent. Timings are medians over rounds.
func (b *bench) runSimTraced(spec simSpec, rep *report) error {
	clock()
	st, err := b.setupSim(spec)
	if err != nil {
		return err
	}
	rep.values["workloads.gen_s"] = st.gen.Seconds()
	var ref map[simCell]*sim.Result
	var rounds []layerTotals
	var parWalls []time.Duration
	pool := sim.NewRunPool()
	log := &opLog{}
	start := time.Now()
	for len(rounds) == 0 || time.Since(start) < b.cfg.seconds {
		round := b.spans.begin("round", 0)
		res, wall, err := b.simPass(spec, st, b.nproc, rep, round)
		if err != nil {
			return err
		}
		if ref == nil {
			ref = res
		}
		checkSame(rep, "pass", ref, res)
		parWalls = append(parWalls, wall)
		var tot layerTotals
		ladder := b.spans.begin("ladder", round)
		for _, c := range spec.cells() {
			r, ok := ref[c]
			if !ok {
				continue
			}
			if err := b.ladderCell(c, st.traces[c.in], r, pool, log, &tot, rep, ladder); err != nil {
				return err
			}
		}
		b.spans.end(ladder)
		b.spans.end(round)
		rounds = append(rounds, tot)
	}
	rep.info["rounds"] = len(rounds)

	med := func(f func(t *layerTotals, par time.Duration) float64) float64 {
		var xs []float64
		for i := range rounds {
			xs = append(xs, f(&rounds[i], parWalls[i]))
		}
		return median(xs)
	}
	ns := func(d time.Duration) float64 { return float64(d.Nanoseconds()) }
	P := float64(b.nproc)
	rep.values["exp.parallel_efficiency"] = med(func(t *layerTotals, par time.Duration) float64 {
		return ratio(ns(t.untraced), ns(par)*P)
	})
	rep.values["core.ns_per_access"] = med(func(t *layerTotals, _ time.Duration) float64 {
		return ratio(ns(t.coreSelf), float64(t.coreCalls))
	})
	rep.values["prefetch.ns_per_access"] = med(func(t *layerTotals, _ time.Duration) float64 {
		return ratio(ns(t.baseSelf), float64(t.baseCalls))
	})
	rep.values["cache.ns_per_op"] = med(func(t *layerTotals, _ time.Duration) float64 {
		return ratio(ns(t.cacheWall), float64(t.cacheOps))
	})
	rep.values["cpu.ns_per_record"] = med(func(t *layerTotals, _ time.Duration) float64 {
		return ratio(ns(t.cpuWall), float64(t.records))
	})
	// The adapter has no public boundary of its own: it is what remains of
	// an untraced cell after the CPU, cache and prefetcher rungs.
	rep.values["sim.adapter_ns_per_access"] = med(func(t *layerTotals, _ time.Duration) float64 {
		return ratio(ns(t.untraced-t.cpuWall-t.cacheWall-t.pfSelf), float64(t.accesses))
	})
	rep.values["tracing.overhead_share"] = med(func(t *layerTotals, _ time.Duration) float64 {
		return ratio(ns(t.traced-t.untraced), ns(t.untraced))
	})
	t := &rounds[0]
	rep.values["core.prefetches_per_access"] = ratio(float64(t.corePF), float64(t.coreCalls))
	rep.values["core.shadows_per_access"] = ratio(float64(t.coreShadow), float64(t.coreCalls))
	rep.values["core.accurate_ratio"] = ratio(float64(t.accurate), float64(t.outcomes))
	rep.values["cache.l1_miss_ratio"] = ratio(float64(t.l1Miss), float64(t.l1Access))
	rep.values["cache.l2_mpki"] = ratio(float64(t.l2Miss)*1000, float64(t.instr))
	rep.values["cache.prefetch_useless_ratio"] = ratio(float64(t.useless), float64(t.pfFills))
	return nil
}
