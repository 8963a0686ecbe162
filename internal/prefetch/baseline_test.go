package prefetch

import (
	"fmt"
	"testing"

	"semloc/internal/cache"
	"semloc/internal/memmodel"
)

// observer is the part of Prefetcher the reference implementations share.
type observer interface {
	OnAccess(a *Access, iss Issuer)
}

// issue is one recorded prefetch: its target and the cycle of the access
// that issued it (the test streams use the access index as the cycle).
type issue struct {
	addr memmodel.Addr
	now  cache.Cycle
}

// recIssuer records every prefetch in order.
type recIssuer struct{ got []issue }

func (r *recIssuer) Prefetch(addr memmodel.Addr, now cache.Cycle) bool {
	r.got = append(r.got, issue{addr, now})
	return true
}
func (*recIssuer) Shadow(memmodel.Addr)              {}
func (*recIssuer) FreePrefetchSlots(cache.Cycle) int { return 4 }

// nopIssuer discards prefetches (benchmarks, alloc guards).
type nopIssuer struct{}

func (*nopIssuer) Prefetch(memmodel.Addr, cache.Cycle) bool { return true }
func (*nopIssuer) Shadow(memmodel.Addr)                     {}
func (*nopIssuer) FreePrefetchSlots(cache.Cycle) int        { return 4 }

// lockstep drives got and want over the same stream and fails on the
// first prefetch where their sequences differ. It returns the number of
// prefetches issued.
func lockstep(t *testing.T, got, want observer, stream []Access) int {
	t.Helper()
	var g, w recIssuer
	for i := range stream {
		got.OnAccess(&stream[i], &g)
		want.OnAccess(&stream[i], &w)
		if len(g.got) != len(w.got) || (len(g.got) > 0 && g.got[len(g.got)-1] != w.got[len(w.got)-1]) {
			t.Fatalf("access %d: %d prefetches %v, reference %d %v", i, len(g.got), tail(g.got), len(w.got), tail(w.got))
		}
	}
	for k := range g.got {
		if g.got[k] != w.got[k] {
			t.Fatalf("prefetch %d: %+v, reference %+v", k, g.got[k], w.got[k])
		}
	}
	return len(g.got)
}

func tail(s []issue) []issue { return s[max(0, len(s)-4):] }

// ghbTestStream builds n accesses from sites load sites, each walking
// lines by a short repeating delta pattern with occasional jumps. Sites
// start near address 0, so some replays would fall below it.
func ghbTestStream(seed uint64, n, sites int) []Access {
	rng := memmodel.NewRNG(seed)
	type site struct {
		line    memmodel.Line
		pattern []int64
		k       int
	}
	ss := make([]site, sites)
	for i := range ss {
		ss[i].line = memmodel.Line(rng.Intn(1 << 12))
		ss[i].pattern = make([]int64, 1+rng.Intn(4))
		for j := range ss[i].pattern {
			ss[i].pattern[j] = int64(rng.Intn(9)) - 4
		}
	}
	out := make([]Access, n)
	for i := range out {
		p := rng.Intn(sites)
		s := &ss[p]
		var d int64
		switch r := rng.Intn(100); {
		case r < 85:
			d = s.pattern[s.k%len(s.pattern)]
			s.k++
		case r < 95:
			d = int64(rng.Intn(129)) - 64
		default:
			d = int64(rng.Intn(1<<12)) - int64(s.line)
		}
		if int64(s.line)+d < 0 {
			d = -d
		}
		s.line = s.line.AddLines(d)
		addr := s.line.Base() + memmodel.Addr(rng.Intn(memmodel.LineSize))
		out[i] = Access{
			PC: 0x400 + uint64(p)*4, Addr: addr, Line: memmodel.LineOf(addr),
			Now: cache.Cycle(i), Index: uint64(i), MissedL1: rng.Intn(5) != 0,
		}
	}
	return out
}

// smsTestStream interleaves a few walkers, each touching a per-PC spatial
// footprint in a region drawn from a small pool, so generations overlap,
// tables fill and evict, and triggers recur.
func smsTestStream(seed uint64, n int) []Access {
	rng := memmodel.NewRNG(seed)
	feet := make([][]int, 8)
	for i := range feet {
		feet[i] = make([]int, 2+rng.Intn(5))
		for j := range feet[i] {
			feet[i][j] = rng.Intn(32)
		}
	}
	type walker struct{ pc, region, k int }
	ws := make([]walker, 4)
	for i := range ws {
		ws[i] = walker{pc: rng.Intn(len(feet)), region: rng.Intn(256)}
	}
	out := make([]Access, n)
	for i := range out {
		w := &ws[rng.Intn(len(ws))]
		off := feet[w.pc][w.k]
		if rng.Intn(10) == 0 {
			off = rng.Intn(32)
		}
		addr := memmodel.Addr(w.region*2048 + off*memmodel.LineSize + rng.Intn(memmodel.LineSize))
		out[i] = Access{
			PC: 0x400 + uint64(w.pc)*4, Addr: addr, Line: memmodel.LineOf(addr),
			Now: cache.Cycle(i), Index: uint64(i), MissedL1: true,
		}
		if w.k++; w.k == len(feet[w.pc]) {
			*w = walker{pc: rng.Intn(len(feet)), region: rng.Intn(256)}
		}
	}
	return out
}

// TestGHBMatchesReference pins the windowed GHB to the chained reference:
// the same prefetches, in the same order, from the same accesses, across
// Table 2 sizes, ring wrap with buffers under and over the 64-entry walk,
// index takeover and training on hits.
func TestGHBMatchesReference(t *testing.T) {
	cases := []struct {
		name  string
		cfg   GHBConfig
		sites int
	}{
		{"gdc", GHBConfig{Localization: LocalizeGlobal}, 1},
		{"gdc-interleaved", GHBConfig{Localization: LocalizeGlobal}, 3},
		{"pcdc", GHBConfig{Localization: LocalizePC}, 16},
		{"gdc-buf16", GHBConfig{Localization: LocalizeGlobal, BufferSize: 16}, 1},
		{"pcdc-buf16", GHBConfig{Localization: LocalizePC, BufferSize: 16}, 4},
		{"pcdc-buf70", GHBConfig{Localization: LocalizePC, BufferSize: 70}, 8},
		{"gdc-buf100", GHBConfig{Localization: LocalizeGlobal, BufferSize: 100}, 2},
		{"pcdc-buf100-idx4", GHBConfig{Localization: LocalizePC, BufferSize: 100, IndexSize: 4}, 16},
		{"pcdc-idx8", GHBConfig{Localization: LocalizePC, IndexSize: 8}, 32},
		{"pcdc-hits", GHBConfig{Localization: LocalizePC, TrainOnHits: true}, 8},
		{"gdc-hits-deg5-hist5", GHBConfig{Localization: LocalizeGlobal, TrainOnHits: true, Degree: 5, HistoryLength: 5}, 1},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			issued := 0
			for seed := uint64(1); seed <= 4; seed++ {
				issued += lockstep(t, NewGHB(c.cfg), newRefGHB(c.cfg), ghbTestStream(seed, 20000, c.sites))
			}
			if issued == 0 {
				t.Fatal("no prefetches: the comparison proves nothing")
			}
		})
	}
}

// TestSMSMatchesReference pins SMS with packed region tags to the
// reference that scans whole entries, at Table 2 and tiny table sizes.
func TestSMSMatchesReference(t *testing.T) {
	for _, cfg := range []SMSConfig{
		{},
		{FilterEntries: 2, AGTEntries: 2},
		{FilterEntries: 2, AGTEntries: 32},
		{FilterEntries: 32, AGTEntries: 2},
		{FilterEntries: 2, AGTEntries: 2, PHTEntries: 64, RegionSize: 1024},
	} {
		t.Run(fmt.Sprintf("filter%d-agt%d-pht%d-region%d", cfg.FilterEntries, cfg.AGTEntries, cfg.PHTEntries, cfg.RegionSize), func(t *testing.T) {
			issued := 0
			for seed := uint64(1); seed <= 4; seed++ {
				issued += lockstep(t, NewSMS(cfg), newRefSMS(cfg), smsTestStream(seed, 20000))
			}
			if issued == 0 {
				t.Fatal("no prefetches: the comparison proves nothing")
			}
		})
	}
}

// TestGHBDropsTargetsBelowZero feeds a unit-stride stream descending to
// line 0: the replay must prefetch line 0 and stop there instead of
// wrapping to the top of the address space.
func TestGHBDropsTargetsBelowZero(t *testing.T) {
	p := NewGHB(GHBConfig{Localization: LocalizeGlobal})
	iss := newMockIssuer()
	for l := 20; l >= 0; l-- {
		p.OnAccess(access(0x400, memmodel.Line(l).Base(), uint64(20-l)), iss)
	}
	if !iss.issuedLines()[0] {
		t.Errorf("line 0 not prefetched; issued %v", iss.issued)
	}
	for _, a := range iss.issued {
		if a > memmodel.Line(20).Base() {
			t.Fatalf("wrapped prefetch target %v", a)
		}
	}
}

// TestStrideDropsTargetsBelowZero is the stride twin: a -256 B stride
// walking down to address 0.
func TestStrideDropsTargetsBelowZero(t *testing.T) {
	p := NewStride(StrideConfig{})
	iss := newMockIssuer()
	for i := 0; i <= 16; i++ {
		p.OnAccess(access(0x400, memmodel.Addr(0x1000-i*256), uint64(i)), iss)
	}
	if !iss.issuedLines()[0] {
		t.Errorf("address 0 not prefetched; issued %v", iss.issued)
	}
	for _, a := range iss.issued {
		if a > 0x1000 {
			t.Fatalf("wrapped prefetch target %v", a)
		}
	}
}

// benchBaseline measures OnAccess on a prefetcher warmed over stream.
func benchBaseline(b *testing.B, p Prefetcher, stream []Access) {
	iss := &nopIssuer{}
	for i := range stream {
		p.OnAccess(&stream[i], iss)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.OnAccess(&stream[i%len(stream)], iss)
	}
}

func BenchmarkGHBOnAccess(b *testing.B) {
	benchBaseline(b, NewGHB(DefaultGHBConfig(LocalizeGlobal)), ghbTestStream(1, 4096, 1))
}

func BenchmarkSMSOnAccess(b *testing.B) {
	benchBaseline(b, NewSMS(DefaultSMSConfig()), smsTestStream(1, 4096))
}
