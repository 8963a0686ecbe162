package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"semloc/internal/core"
	"semloc/internal/memmodel"
	"semloc/internal/obs"
	"semloc/internal/prefetch"
	"semloc/internal/serve"
	"semloc/internal/serve/client"
	"semloc/internal/sim"
	"semloc/internal/workloads"
)

// The serve workloads drive an in-process prefetchd server over loopback
// with nproc closed-loop sessions. Callers of prefetchd each wait for
// their decision, so a closed loop is the realistic shape; an open loop
// on a small container would also measure its own timer overshoot rather
// than the server.
const (
	serveInput  = "list"
	serveScale  = 0.2
	serveSetups = 9
)

// serveSetup is a started server with one dialled client per session.
type serveSetup struct {
	stream  []serve.BatchAccess // one pass over the input, Seq unset
	srv     *serve.Server
	reg     *obs.Registry
	clients []*client.Client
	gen     time.Duration
	total   time.Duration
}

func (st *serveSetup) close() {
	for _, cl := range st.clients {
		cl.Close()
	}
	st.srv.Close()
}

// setupServe generates the input stream, starts a server (stage
// histograms on when traced) and dials the sessions.
func (b *bench) setupServe(batch int, traced bool) (*serveSetup, error) {
	start := time.Now()
	w, err := workloads.ByName(serveInput)
	if err != nil {
		return nil, err
	}
	tr := w.Generate(workloads.GenConfig{Scale: serveScale * b.cfg.scale, Seed: b.cfg.seed})
	gen := time.Since(start)
	frames := serve.AccessFrames(tr)
	stream := make([]serve.BatchAccess, len(frames))
	for i := range frames {
		f := &frames[i]
		stream[i] = serve.BatchAccess{PC: f.PC, Addr: f.Addr, Value: f.Value, Reg: f.Reg,
			BranchHist: f.BranchHist, Store: f.Store, Hints: f.Hints}
	}
	reg := obs.NewRegistry()
	cfg := serve.Config{Listen: "127.0.0.1:0", Reg: reg}
	if traced {
		cfg.Trace = &serve.TraceConfig{Reg: reg}
	}
	srv, err := serve.NewServer(cfg)
	if err != nil {
		return nil, err
	}
	if err := srv.Start(); err != nil {
		return nil, err
	}
	st := &serveSetup{stream: stream, srv: srv, reg: reg, gen: gen}
	for i := 0; i < b.nproc; i++ {
		cl, err := client.Dial(client.Config{
			Addr:     client.FixedAddr(srv.Addr().String()),
			Session:  fmt.Sprintf("bench-%d", i),
			MaxBatch: batch,
		})
		if err != nil {
			st.close()
			return nil, err
		}
		st.clients = append(st.clients, cl)
		if cl.Batch() != batch {
			st.close()
			return nil, fmt.Errorf("server granted batch %d, want %d", cl.Batch(), batch)
		}
	}
	st.total = time.Since(start)
	return st, nil
}

// session is one closed-loop client's measurements. Its memory does not
// grow with the number of decisions, so peak RSS does not depend on
// throughput.
type session struct {
	window    uint64         // decisions from calls started inside the window
	slots     []uint64       // the same, per one-second slot of the window
	lats      []*latencyHist // round trips of those calls, per slot
	rtt       time.Duration  // every call
	calls     uint64
	decisions uint64
	failed    uint64
	err       error
	check     digests // the checked session only
}

// loopResult summarises one closed loop.
type loopResult struct {
	sessions []*session
	window   time.Duration
}

// runLoop drives every session for dur; calls that start in the first
// warm are not measured.
func runLoop(st *serveSetup, batch int, dur, warm time.Duration) loopResult {
	start := time.Now()
	warmEnd, stop := start.Add(warm), start.Add(dur)
	out := loopResult{window: dur - warm}
	var wg sync.WaitGroup
	for i, cl := range st.clients {
		s := &session{}
		out.sessions = append(out.sessions, s)
		wg.Add(1)
		go func(cl *client.Client, s *session, checked bool) {
			defer wg.Done()
			s.drive(cl, st.stream, batch, warmEnd, stop, checked)
		}(cl, s, i == 0)
	}
	wg.Wait()
	return out
}

// slot is the window over which throughput is sampled.
const slot = time.Second

// nsPerDecision is the median, over the window's whole one-second slots,
// of wall time per decision, so a stall of the machine confined to a few
// slots does not set the figure. A window shorter than two slots is taken
// whole.
func (lr loopResult) nsPerDecision() float64 {
	full := int(lr.window / slot)
	if full < 2 {
		var n uint64
		for _, s := range lr.sessions {
			n += s.window
		}
		return ratio(float64(lr.window.Nanoseconds()), float64(n))
	}
	var xs []float64
	for k := 0; k < full; k++ {
		var n uint64
		for _, s := range lr.sessions {
			if k < len(s.slots) {
				n += s.slots[k]
			}
		}
		xs = append(xs, float64(slot.Nanoseconds())/float64(n))
	}
	return median(xs)
}

// latencyUs is the median, over the window's whole one-second slots, of
// each slot's q-quantile round trip in microseconds, for the same reason.
// A window shorter than two slots is taken whole.
func (lr loopResult) latencyUs(q float64) float64 {
	full := int(lr.window / slot)
	if full < 2 {
		var h latencyHist
		for _, s := range lr.sessions {
			for _, sh := range s.lats {
				h.merge(sh)
			}
		}
		return h.quantileUs(q)
	}
	var xs []float64
	for k := 0; k < full; k++ {
		var h latencyHist
		for _, s := range lr.sessions {
			if k < len(s.lats) {
				h.merge(s.lats[k])
			}
		}
		xs = append(xs, h.quantileUs(q))
	}
	return median(xs)
}

// drive loops over the stream, sending batch-sized batch frames until
// stop.
func (s *session) drive(cl *client.Client, stream []serve.BatchAccess, batch int, warmEnd, stop time.Time, checked bool) {
	buf := make([]serve.BatchAccess, batch)
	seq, pos := uint64(1), 0
	for {
		t0 := time.Now()
		if !t0.Before(stop) {
			return
		}
		for j := range buf {
			buf[j] = stream[pos]
			buf[j].Seq = seq
			seq++
			if pos++; pos == len(stream) {
				pos = 0
			}
		}
		decs, err := cl.DecideBatch(buf, nil)
		el := time.Since(t0)
		if err != nil {
			s.err, s.failed = err, s.failed+uint64(batch)
			return
		}
		for j := range decs {
			d := &decs[j]
			s.note(d.Prefetch, d.Shadow, d.Degraded || d.Replayed || d.Code != "", checked)
		}
		s.rtt += el
		s.calls++
		if !t0.Before(warmEnd) {
			s.window += uint64(batch)
			k := int(t0.Sub(warmEnd) / slot)
			for len(s.slots) <= k {
				s.slots = append(s.slots, 0)
				s.lats = append(s.lats, &latencyHist{})
			}
			s.slots[k] += uint64(batch)
			s.lats[k].add(el)
		}
	}
}

func (s *session) note(pf, sh []uint64, bad, checked bool) {
	s.decisions++
	if bad {
		s.failed++
	}
	if checked {
		s.check.add(decisionHash(pf, sh))
	}
}

// decisionHash fingerprints one decision's payload for the bit-for-bit
// cross-check (FNV-1a over the lengths and addresses).
func decisionHash(pf, sh []uint64) uint64 {
	h := uint64(fnvOffset)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h = (h ^ (v & 0xff)) * fnvPrime
			v >>= 8
		}
	}
	mix(uint64(len(pf)))
	for _, a := range pf {
		mix(a)
	}
	mix(uint64(len(sh)))
	for _, a := range sh {
		mix(a)
	}
	return h
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
	// digestChunk is how many consecutive decisions one digest covers.
	digestChunk = 1024
)

// digests folds a session's decision fingerprints into one digest per
// chunk of digestChunk decisions.
type digests struct {
	sums []uint64
	cur  uint64
	n    uint64 // decisions folded in total
}

func (d *digests) add(h uint64) {
	if d.n%digestChunk == 0 {
		if d.n > 0 {
			d.sums = append(d.sums, d.cur)
		}
		d.cur = fnvOffset
	}
	d.cur = (d.cur ^ h) * fnvPrime
	d.n++
}

// final returns every chunk's digest, the last one possibly partial.
func (d *digests) final() []uint64 {
	if d.n == 0 {
		return nil
	}
	return append(d.sums[:len(d.sums):len(d.sums)], d.cur)
}

// latencyHist is a histogram of durations in log-spaced buckets 1% wide.
type latencyHist struct {
	counts [latencyBuckets]uint64
	n      uint64
}

const (
	latencyGrowth = 1.01
	// latencyBuckets spans 1 ns to over 10 s.
	latencyBuckets = 2400
)

func (h *latencyHist) add(d time.Duration) {
	i := int(math.Log(math.Max(float64(d), 1)) / math.Log(latencyGrowth))
	h.counts[min(i, latencyBuckets-1)]++
	h.n++
}

func (h *latencyHist) merge(o *latencyHist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantileUs returns the q-quantile in microseconds, placing a bucket's
// samples evenly across it.
func (h *latencyHist) quantileUs(q float64) float64 {
	if h.n == 0 {
		return math.NaN()
	}
	rank := q * float64(h.n-1)
	var below float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if rank < below+float64(c) {
			frac := (rank - below + 0.5) / float64(c)
			return math.Pow(latencyGrowth, float64(i)+frac) / 1e3
		}
		below += float64(c)
	}
	return math.Pow(latencyGrowth, latencyBuckets) / 1e3
}

// finishLoop closes the setup and runs the serve correctness gate: every
// decision of every session must be fresh and error-free, the clients'
// decision count must equal the server's serve_decisions_total, and the
// checked session must match an in-process serve.Learner fed the same
// stream bit for bit. It returns the reference learner's decisions for
// the stream's first pass.
func (b *bench) finishLoop(st *serveSetup, lr loopResult, rep *report) (*refDecisions, error) {
	st.close()
	var decisions uint64
	for i, s := range lr.sessions {
		rep.attempted += s.decisions
		rep.failed += s.failed
		decisions += s.decisions
		if s.err != nil {
			rep.problem("session %d: %v", i, s.err)
		}
	}
	for _, cl := range st.clients {
		if cl.Busy > 0 {
			rep.failed += uint64(cl.Busy)
			rep.problem("%d busy bounces", cl.Busy)
		}
	}
	if got := st.reg.Counter("serve_decisions_total", "").Value(); got != decisions {
		rep.problem("clients received %d decisions, server counted %d", decisions, got)
	}
	checked := &lr.sessions[0].check
	ref, err := referenceDecisions(st.stream, checked)
	if err != nil {
		return nil, err
	}
	if ref.mismatched > 0 {
		rep.failed += ref.mismatched
		rep.problem("%d of %d checked decisions fall in chunks that differ from the in-process learner", ref.mismatched, checked.n)
	}
	return ref, nil
}

// refDecisions is the in-process learner's view of the stream.
type refDecisions struct {
	prefetch, shadow [][]uint64 // first pass over the stream
	mismatched       uint64     // decisions in chunks whose digest differs
	prefetches       uint64
	shadows          uint64
	accesses         uint64
	health           core.LearnerHealth
}

// referenceDecisions feeds the stream, looped as the sessions loop it,
// through a fresh serve.Learner — the contract prefetchsim -remote relies
// on — and compares its decisions with the served ones chunk by chunk.
func referenceDecisions(stream []serve.BatchAccess, served *digests) (*refDecisions, error) {
	l, err := serve.NewLearner(core.Config{})
	if err != nil {
		return nil, err
	}
	out := &refDecisions{}
	var mine digests
	n := max(served.n, uint64(len(stream)))
	for i := uint64(0); i < n; i++ {
		pf, sh := l.DecideAccess(&stream[i%uint64(len(stream))])
		if i < served.n {
			mine.add(decisionHash(pf, sh))
		}
		if i < uint64(len(stream)) {
			out.prefetch = append(out.prefetch, append([]uint64(nil), pf...))
			out.shadow = append(out.shadow, append([]uint64(nil), sh...))
		}
		out.prefetches += uint64(len(pf))
		out.shadows += uint64(len(sh))
	}
	want, got := mine.final(), served.final()
	for k := range got {
		if got[k] != want[k] {
			out.mismatched += min(digestChunk, served.n-uint64(k)*digestChunk)
		}
	}
	out.accesses = n
	out.health = l.Health()
	return out, nil
}

// replayPrefetcher issues recorded decisions, one list per demand access.
type replayPrefetcher struct{ prefetch, shadow [][]uint64 }

func (r *replayPrefetcher) Name() string { return "served" }

func (r *replayPrefetcher) OnAccess(a *prefetch.Access, iss prefetch.Issuer) {
	if a.Index >= uint64(len(r.prefetch)) {
		return
	}
	for _, addr := range r.prefetch[a.Index] {
		iss.Prefetch(memmodel.Addr(addr), a.Now)
	}
	for _, addr := range r.shadow[a.Index] {
		iss.Shadow(memmodel.Addr(addr))
	}
}

// servedSpeedup simulates the stream's trace with the served decisions as
// the prefetcher and returns its IPC over no prefetching: what the served
// decisions would buy the modelled core.
func (b *bench) servedSpeedup(ref *refDecisions) (float64, error) {
	w, err := workloads.ByName(serveInput)
	if err != nil {
		return 0, err
	}
	tr := w.Generate(workloads.GenConfig{Scale: serveScale * b.cfg.scale, Seed: b.cfg.seed})
	cfg := sim.DefaultConfig()
	base, err := sim.RunContext(context.Background(), tr, prefetch.NewNone(), cfg)
	if err != nil {
		return 0, err
	}
	got, err := sim.RunContext(context.Background(), tr, &replayPrefetcher{ref.prefetch, ref.shadow}, cfg)
	if err != nil {
		return 0, err
	}
	return got.IPC() / base.IPC(), nil
}

// warmup is how much of a loop is not measured.
func warmup(d time.Duration) time.Duration { return min(time.Second, d/10) }

func (b *bench) runServe(batch int) (*report, error) {
	rep := newReport()
	rep.info["sessions"] = b.nproc
	rep.info["batch"] = batch
	rep.info["input"] = fmt.Sprintf("%s@%g", serveInput, serveScale*b.cfg.scale)
	if b.cfg.trace {
		return rep, b.runServeTraced(batch, rep)
	}
	var st *serveSetup
	var setups []float64
	for i := 0; i < serveSetups; i++ {
		if st != nil {
			st.close()
			st = nil
		}
		runtime.GC()
		var err error
		if st, err = b.setupServe(batch, false); err != nil {
			return nil, err
		}
		setups = append(setups, st.total.Seconds())
	}
	rep.values["setup_s"] = median(setups)
	if err := startPeakRSS(); err != nil {
		st.close()
		return nil, err
	}
	lr := runLoop(st, batch, b.cfg.seconds, warmup(b.cfg.seconds))
	ref, err := b.finishLoop(st, lr, rep)
	if err != nil {
		return nil, err
	}
	var window uint64
	for _, s := range lr.sessions {
		window += s.window
	}
	rep.values["ns_per_access"] = lr.nsPerDecision()
	rep.values["latency_p50_us"] = lr.latencyUs(0.5)
	rep.values["latency_p99_us"] = lr.latencyUs(0.99)
	rep.info["decisions_per_s"] = 1e9 / rep.values["ns_per_access"]
	rep.info["measured_decisions"] = window
	if rep.values["sim_speedup_geomean"], err = b.servedSpeedup(ref); err != nil {
		return nil, err
	}
	return rep, nil
}

// runServeTraced measures the per-layer metrics: half the run untraced and
// half with the server's stage histograms on (their difference is the
// tracing overhead), then the codec and learner rungs in process.
func (b *bench) runServeTraced(batch int, rep *report) error {
	half := b.cfg.seconds / 2
	var nsPer [2]float64
	var ref *refDecisions
	var stream []serve.BatchAccess
	for i, traced := range []bool{false, true} {
		id := b.spans.begin(fmt.Sprintf("loop traced=%v", traced), 0)
		st, err := b.setupServe(batch, traced)
		if err != nil {
			return err
		}
		if !traced {
			rep.values["workloads.gen_s"] = st.gen.Seconds()
			stream = st.stream
		}
		lr := runLoop(st, batch, half, warmup(half))
		if ref, err = b.finishLoop(st, lr, rep); err != nil {
			return err
		}
		b.spans.end(id)
		var calls uint64
		var rtt time.Duration
		for _, s := range lr.sessions {
			calls += s.calls
			rtt += s.rtt
		}
		nsPer[i] = lr.nsPerDecision()
		if !traced {
			continue
		}
		// The stage histograms are observed once per decision with each
		// frame's stage time split evenly over its decisions, so a sum
		// over the frame count is the mean per frame.
		frames := float64(st.reg.Histogram(serve.MetricBatchSize, "", nil).Count())
		perFrameUs := func(name string) float64 {
			return ratio(st.reg.Histogram(name, "", nil).Sum()*1e6, frames)
		}
		rep.values["serve.queue_wait_us"] = perFrameUs(serve.MetricQueueWaitLatency)
		rep.values["serve.write_us"] = perFrameUs(serve.MetricWriteLatency)
		rep.values["serve.frame_us"] = perFrameUs(serve.MetricFrameLatency)
		rep.values["serve.batch_size_mean"] = ratio(st.reg.Histogram(serve.MetricBatchSize, "", nil).Sum(), frames)
		rep.values["client.overhead_us"] = ratio(float64(rtt.Nanoseconds())/1e3, float64(calls)) - rep.values["serve.frame_us"]
	}
	rep.values["tracing.overhead_share"] = ratio(nsPer[1]-nsPer[0], nsPer[0])
	rep.values["core.prefetches_per_access"] = ratio(float64(ref.prefetches), float64(ref.accesses))
	rep.values["core.shadows_per_access"] = ratio(float64(ref.shadows), float64(ref.accesses))
	h := ref.health
	rep.values["core.accurate_ratio"] = ratio(float64(h.OutcomeAccurate),
		float64(h.OutcomeAccurate+h.OutcomeLate+h.OutcomeEvicted+h.OutcomeUseless))

	id := b.spans.begin("decide", 0)
	decideNs, err := decideRung(stream)
	b.spans.end(id)
	if err != nil {
		return err
	}
	rep.values["serve.decide_ns_per_access"] = decideNs
	id = b.spans.begin("codec", 0)
	enc, dec, allocs, err := codecRung(stream, ref, batch)
	b.spans.end(id)
	if err != nil {
		return err
	}
	rep.values["codec.encode_ns_per_access"] = enc
	rep.values["codec.decode_ns_per_access"] = dec
	rep.values["codec.allocs_per_access"] = allocs
	return nil
}

// rungPasses is how many passes over the stream the in-process rungs time.
const rungPasses = 4

// decideRung times a fresh learner over the stream through
// Learner.DecideAccess, the entry point the server uses for batch items.
func decideRung(stream []serve.BatchAccess) (float64, error) {
	l, err := serve.NewLearner(core.Config{})
	if err != nil {
		return 0, err
	}
	n := rungPasses * len(stream)
	start := time.Now()
	for i := 0; i < n; i++ {
		l.DecideAccess(&stream[i%len(stream)])
	}
	return float64(time.Since(start).Nanoseconds()) / float64(n), nil
}

// codecRung encodes the workload's own request and reply frames with
// serve.AppendFrame and decodes them with serve.DecodeFrameInto, as the
// client and server do, and returns ns per access for each direction and
// allocations per access for both.
func codecRung(stream []serve.BatchAccess, ref *refDecisions, batch int) (enc, dec, allocs float64, err error) {
	var frames []*serve.Frame
	accesses := 0
	for k := 0; k+batch <= len(stream); k += batch {
		req := &serve.Frame{Type: serve.FrameBatch}
		resp := &serve.Frame{Type: serve.FrameBatch}
		for j := k; j < k+batch; j++ {
			a := stream[j]
			a.Seq = uint64(j + 1)
			req.Accesses = append(req.Accesses, a)
			resp.Results = append(resp.Results, serve.BatchDecision{Seq: a.Seq, Prefetch: ref.prefetch[j], Shadow: ref.shadow[j]})
		}
		frames = append(frames, req, resp)
		accesses += batch
	}
	if accesses == 0 {
		return 0, 0, 0, fmt.Errorf("codec rung: stream shorter than one batch")
	}
	var buf []byte
	ends := make([]int, len(frames))
	encodeAll := func() error {
		buf = buf[:0]
		for i, f := range frames {
			if buf, err = serve.AppendFrame(buf, f); err != nil {
				return err
			}
			ends[i] = len(buf)
		}
		return nil
	}
	var in [2]serve.Frame // request side and reply side, reused like the peers do
	decodeAll := func() error {
		prev := 0
		for i, end := range ends {
			if err := serve.DecodeFrameInto(buf[prev:end-1], &in[i%2]); err != nil {
				return err
			}
			prev = end
		}
		return nil
	}
	// One untimed round sizes the buffers, as a long-lived peer's are.
	if err := encodeAll(); err != nil {
		return 0, 0, 0, err
	}
	if err := decodeAll(); err != nil {
		return 0, 0, 0, err
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	for r := 0; r < rungPasses; r++ {
		if err := encodeAll(); err != nil {
			return 0, 0, 0, err
		}
	}
	encWall := time.Since(start)
	start = time.Now()
	for r := 0; r < rungPasses; r++ {
		if err := decodeAll(); err != nil {
			return 0, 0, 0, err
		}
	}
	decWall := time.Since(start)
	runtime.ReadMemStats(&m1)
	n := float64(rungPasses * accesses)
	mallocs := float64(m1.Mallocs - m0.Mallocs)
	return float64(encWall.Nanoseconds()) / n, float64(decWall.Nanoseconds()) / n, mallocs / n, nil
}
