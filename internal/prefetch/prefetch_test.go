package prefetch

import (
	"testing"

	"semloc/internal/cache"
	"semloc/internal/memmodel"
)

// mockIssuer records issued and shadow prefetches.
type mockIssuer struct {
	issued  []memmodel.Addr
	shadows []memmodel.Addr
	free    int
}

func newMockIssuer() *mockIssuer { return &mockIssuer{free: 4} }

func (m *mockIssuer) Prefetch(addr memmodel.Addr, now cache.Cycle) bool {
	m.issued = append(m.issued, addr)
	return true
}

func (m *mockIssuer) Shadow(addr memmodel.Addr) {
	m.shadows = append(m.shadows, addr)
}

func (m *mockIssuer) FreePrefetchSlots(now cache.Cycle) int { return m.free }

func (m *mockIssuer) issuedLines() map[memmodel.Line]bool {
	out := make(map[memmodel.Line]bool)
	for _, a := range m.issued {
		out[memmodel.LineOf(a)] = true
	}
	return out
}

// access builds a miss access for the given pc/addr.
func access(pc uint64, addr memmodel.Addr, idx uint64) *Access {
	return &Access{PC: pc, Addr: addr, Line: memmodel.LineOf(addr), Index: idx, MissedL1: true, Now: cache.Cycle(idx * 10)}
}

func TestNonePrefetcher(t *testing.T) {
	p := NewNone()
	iss := newMockIssuer()
	p.OnAccess(access(1, 0x1000, 0), iss)
	if p.Name() != "none" {
		t.Errorf("Name = %q", p.Name())
	}
	if len(iss.issued)+len(iss.shadows) != 0 {
		t.Error("none prefetcher must not issue")
	}
}

func TestStrideDetectsStride(t *testing.T) {
	p := NewStride(StrideConfig{})
	iss := newMockIssuer()
	const stride = 256
	for i := 0; i < 10; i++ {
		p.OnAccess(access(0x400, memmodel.Addr(0x10000+i*stride), uint64(i)), iss)
	}
	if len(iss.issued) == 0 {
		t.Fatal("stride prefetcher issued nothing on a steady stride")
	}
	// The last round should have prefetched addr+stride..addr+3*stride.
	last := memmodel.Addr(0x10000 + 9*stride)
	lines := iss.issuedLines()
	for d := 1; d <= 3; d++ {
		want := memmodel.LineOf(last + memmodel.Addr(d*stride))
		if !lines[want] {
			t.Errorf("expected prefetch of %v (d=%d)", want, d)
		}
	}
}

func TestStrideIgnoresRandom(t *testing.T) {
	p := NewStride(StrideConfig{})
	iss := newMockIssuer()
	rng := memmodel.NewRNG(2)
	for i := 0; i < 100; i++ {
		p.OnAccess(access(0x400, memmodel.Addr(rng.Uint64()&0xfffff0), uint64(i)), iss)
	}
	if len(iss.issued) > 10 {
		t.Errorf("stride prefetcher issued %d prefetches on random stream", len(iss.issued))
	}
}

func TestStrideSeparatesPCs(t *testing.T) {
	p := NewStride(StrideConfig{})
	iss := newMockIssuer()
	// Two interleaved streams with different strides at different PCs.
	for i := 0; i < 10; i++ {
		p.OnAccess(access(0x400, memmodel.Addr(0x100000+i*64), uint64(2*i)), iss)
		p.OnAccess(access(0x800, memmodel.Addr(0x900000+i*4096), uint64(2*i+1)), iss)
	}
	lines := iss.issuedLines()
	if !lines[memmodel.LineOf(0x100000+10*64)] {
		t.Error("stream A next line not prefetched")
	}
	if !lines[memmodel.LineOf(0x900000+10*4096)] {
		t.Error("stream B next line not prefetched")
	}
}

func TestStrideZeroStrideNoPrefetch(t *testing.T) {
	p := NewStride(StrideConfig{})
	iss := newMockIssuer()
	for i := 0; i < 20; i++ {
		p.OnAccess(access(0x400, 0x5000, uint64(i)), iss)
	}
	if len(iss.issued) != 0 {
		t.Errorf("zero stride should not prefetch, got %d", len(iss.issued))
	}
}

func TestGHBGDCRepeatingDeltas(t *testing.T) {
	p := NewGHB(GHBConfig{Localization: LocalizeGlobal})
	iss := newMockIssuer()
	// Delta pattern (in lines): +1,+2,+3 repeating from a base.
	deltas := []int64{1, 2, 3}
	line := memmodel.Line(0x1000)
	for rep := 0; rep < 6; rep++ {
		for _, d := range deltas {
			line = line.AddLines(d)
			p.OnAccess(access(0x400, line.Base(), 0), iss)
		}
	}
	if len(iss.issued) == 0 {
		t.Fatal("GHB G/DC issued nothing on repeating delta pattern")
	}
	// After the last access the next deltas should be predicted.
	lines := iss.issuedLines()
	next := line.AddLines(1)
	if !lines[next] {
		t.Errorf("expected prefetch of next line %v; issued %v", next, iss.issued)
	}
}

func TestGHBPCDCInterleavedStreams(t *testing.T) {
	gdc := NewGHB(GHBConfig{Localization: LocalizeGlobal})
	pcdc := NewGHB(GHBConfig{Localization: LocalizePC})
	issG, issP := newMockIssuer(), newMockIssuer()
	// Two interleaved per-PC unit-stride streams; globally the deltas
	// alternate wildly, defeating G/DC but not PC/DC.
	for i := 0; i < 40; i++ {
		a1 := access(0x400, memmodel.Addr(0x100000+i*64), uint64(2*i))
		a2 := access(0x800, memmodel.Addr(0xf00000+i*64), uint64(2*i+1))
		gdc.OnAccess(a1, issG)
		gdc.OnAccess(a2, issG)
		pcdc.OnAccess(a1, issP)
		pcdc.OnAccess(a2, issP)
	}
	linesP := issP.issuedLines()
	if !linesP[memmodel.LineOf(0x100000+40*64)] {
		t.Error("PC/DC should predict stream A's next line")
	}
	if len(issP.issued) == 0 {
		t.Error("PC/DC issued nothing")
	}
}

func TestGHBHitsOnlyOnMisses(t *testing.T) {
	p := NewGHB(GHBConfig{Localization: LocalizeGlobal})
	iss := newMockIssuer()
	for i := 0; i < 30; i++ {
		a := access(0x400, memmodel.Addr(0x1000+i*64), uint64(i))
		a.MissedL1 = false
		p.OnAccess(a, iss)
	}
	if len(iss.issued) != 0 {
		t.Errorf("misses-only GHB trained on hits: %d prefetches", len(iss.issued))
	}
}

func TestGHBNames(t *testing.T) {
	if NewGHB(GHBConfig{Localization: LocalizeGlobal}).Name() != "ghb-gdc" {
		t.Error("G/DC name wrong")
	}
	if NewGHB(GHBConfig{Localization: LocalizePC}).Name() != "ghb-pcdc" {
		t.Error("PC/DC name wrong")
	}
}

// TestGHBWrapAroundSafe hammers a tiny PC/DC configuration: two hot
// unit-stride PCs plus random accesses from 62 others, so the buffer wraps
// every 16 accesses, links go stale and index slots change hands. It
// requires exactly the chained reference's prefetches.
func TestGHBWrapAroundSafe(t *testing.T) {
	cfg := GHBConfig{Localization: LocalizePC, BufferSize: 16, IndexSize: 8}
	rng := memmodel.NewRNG(7)
	var next [2]memmodel.Addr
	stream := make([]Access, 4000)
	for i := range stream {
		pc := rng.Intn(64)
		addr := memmodel.Addr(rng.Uint64() & 0xffffff)
		if rng.Intn(10) != 0 {
			pc %= 2
			next[pc] += memmodel.LineSize
			addr = memmodel.Addr(pc+1)<<24 + next[pc]
		}
		stream[i] = *access(0x400+uint64(pc)*4, addr, uint64(i))
	}
	if lockstep(t, NewGHB(cfg), newRefGHB(cfg), stream) == 0 {
		t.Fatal("no prefetches: the comparison proves nothing")
	}
}

func TestSMSLearnsSpatialPattern(t *testing.T) {
	p := NewSMS(SMSConfig{})
	iss := newMockIssuer()
	// Touch a fixed footprint {0, 2, 5, 9} (line offsets) in region after
	// region, always triggered by the same PC at offset 0. Generations
	// commit when evicted from the 32-entry AGT, so run enough regions for
	// early patterns to mature before the final trigger.
	footprint := []int{0, 2, 5, 9}
	const regions = 40
	for r := 0; r < regions; r++ {
		base := memmodel.Addr(0x100000 + r*2048)
		for _, off := range footprint {
			p.OnAccess(access(0x400, base+memmodel.Addr(off*64), 0), iss)
		}
	}
	if len(iss.issued) == 0 {
		t.Fatal("SMS issued nothing on recurring spatial footprint")
	}
	// The last trigger should have streamed the learned footprint.
	lastBase := memmodel.Addr(0x100000 + (regions-1)*2048)
	lines := iss.issuedLines()
	for _, off := range footprint[1:] {
		if !lines[memmodel.LineOf(lastBase+memmodel.Addr(off*64))] {
			t.Errorf("footprint offset %d not prefetched", off)
		}
	}
}

func TestSMSNoPredictionWithoutHistory(t *testing.T) {
	p := NewSMS(SMSConfig{})
	iss := newMockIssuer()
	p.OnAccess(access(0x400, 0x100000, 0), iss)
	p.OnAccess(access(0x400, 0x100040, 1), iss)
	if len(iss.issued) != 0 {
		t.Errorf("SMS predicted with no trained patterns: %v", iss.issued)
	}
}

func TestSMSDifferentTriggerNoPrediction(t *testing.T) {
	p := NewSMS(SMSConfig{AGTEntries: 2, FilterEntries: 2})
	iss := newMockIssuer()
	// Train pattern with trigger PC 0x400.
	for r := 0; r < 8; r++ {
		base := memmodel.Addr(0x100000 + r*2048)
		p.OnAccess(access(0x400, base, 0), iss)
		p.OnAccess(access(0x404, base+256, 0), iss)
	}
	before := len(iss.issued)
	// New region triggered by an unrelated PC/offset: no pattern match.
	p.OnAccess(access(0xc00, 0x900000+512, 0), iss)
	if len(iss.issued) != before {
		t.Errorf("unrelated trigger should not predict (%d -> %d)", before, len(iss.issued))
	}
}

func TestMarkovLearnsSuccession(t *testing.T) {
	p := NewMarkov(MarkovConfig{})
	iss := newMockIssuer()
	// Pointer-chase loop A -> B -> C -> A ... with scattered lines.
	seq := []memmodel.Addr{0x10000, 0x83000, 0x21c0, 0x50440}
	for rep := 0; rep < 6; rep++ {
		for i, a := range seq {
			p.OnAccess(access(0x500, a, uint64(rep*len(seq)+i)), iss)
		}
	}
	lines := iss.issuedLines()
	// After seeing 0x10000 the predictor should prefetch 0x83000's line.
	if !lines[memmodel.LineOf(0x83000)] {
		t.Errorf("markov did not prefetch learned successor; issued %v", iss.issued)
	}
}

func TestMarkovMultipleSuccessors(t *testing.T) {
	p := NewMarkov(MarkovConfig{Degree: 2})
	iss := newMockIssuer()
	// A is followed by B twice as often as C.
	a, b, c := memmodel.Addr(0x10000), memmodel.Addr(0x20000), memmodel.Addr(0x30000)
	idx := uint64(0)
	emit := func(x memmodel.Addr) { p.OnAccess(access(0x500, x, idx), iss); idx++ }
	for i := 0; i < 12; i++ {
		emit(a)
		if i%3 == 2 {
			emit(c)
		} else {
			emit(b)
		}
	}
	iss.issued = nil
	emit(a)
	lines := iss.issuedLines()
	if !lines[memmodel.LineOf(b)] {
		t.Error("dominant successor B not prefetched")
	}
	if !lines[memmodel.LineOf(c)] {
		t.Error("secondary successor C not prefetched at degree 2")
	}
}

func TestMarkovNames(t *testing.T) {
	if NewMarkov(MarkovConfig{}).Name() != "markov" {
		t.Error("markov name wrong")
	}
	if NewSMS(SMSConfig{}).Name() != "sms" {
		t.Error("sms name wrong")
	}
	if NewStride(StrideConfig{}).Name() != "stride" {
		t.Error("stride name wrong")
	}
}
