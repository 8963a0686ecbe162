package prefetch

import (
	"semloc/internal/memmodel"
)

// This file keeps the straightforward GHB and SMS implementations that
// ghb.go and sms.go replaced, as references for the differential tests in
// baseline_test.go. Both are deliberately unoptimized.

// refGHB is the chained history buffer: a 2K circular buffer whose
// entries link to their stream's previous entry, walked up to 64 entries
// back on every trained access. It differs from the original only in
// ending the replay at a target below address 0, as GHB does.
type refGHB struct {
	cfg GHBConfig

	buf  []refGHBEntry
	head int   // next write position
	gen  []int // generation stamp: buffer write count at entry
	tick int

	index []refGHBIndex
	ibits uint
}

type refGHBEntry struct {
	line memmodel.Line
	prev int // buffer index of previous entry in same stream (-1 none)
	gen  int // tick at which prev was written (validity check)
}

type refGHBIndex struct {
	key   uint64
	last  int // buffer index of stream head
	gen   int
	valid bool
}

func newRefGHB(cfg GHBConfig) *refGHB {
	cfg = NewGHB(cfg).cfg // same defaulting
	isize := 1
	for isize < cfg.IndexSize {
		isize <<= 1
	}
	g := &refGHB{
		cfg:   cfg,
		buf:   make([]refGHBEntry, cfg.BufferSize),
		gen:   make([]int, cfg.BufferSize),
		index: make([]refGHBIndex, isize),
		ibits: log2(isize),
	}
	for i := range g.buf {
		g.buf[i].prev = -1
	}
	return g
}

func (g *refGHB) OnAccess(a *Access, iss Issuer) {
	if !g.cfg.TrainOnHits && !a.MissedL1 {
		return
	}
	var key uint64
	if g.cfg.Localization == LocalizePC {
		key = a.PC
	}
	slot := &g.index[hashBits(key, g.ibits)]

	// Link the new entry into its stream.
	prev := -1
	prevGen := 0
	if slot.valid && slot.key == key && g.entryLive(slot.last, slot.gen) {
		prev = slot.last
		prevGen = slot.gen
	}
	pos := g.head
	g.tick++
	g.buf[pos] = refGHBEntry{line: memmodel.LineOf(a.Addr), prev: prev, gen: prevGen}
	g.gen[pos] = g.tick
	g.head = (g.head + 1) % len(g.buf)
	*slot = refGHBIndex{key: key, last: pos, gen: g.tick, valid: true}

	// Gather the stream's most recent lines (newest first).
	const maxWalk = 64
	var lines [maxWalk]memmodel.Line
	n := 0
	idx, gen := pos, g.tick
	for n < maxWalk && idx >= 0 && g.entryLive(idx, gen) {
		lines[n] = g.buf[idx].line
		gen = g.buf[idx].gen
		idx = g.buf[idx].prev
		n++
	}
	h := g.cfg.HistoryLength
	if h < 2 {
		h = 2
	}
	if n < h+2 {
		return
	}
	var deltaBuf [maxWalk - 1]int64
	deltas := deltaBuf[:n-1]
	for i := 0; i < n-1; i++ {
		deltas[i] = lines[i].Delta(lines[i+1])
	}
	k0, k1 := deltas[0], deltas[1]
	for i := 2; i+1 < len(deltas); i++ {
		if deltas[i] == k0 && deltas[i+1] == k1 {
			cur := memmodel.LineOf(a.Addr)
			issued := 0
			for j := i - 1; j >= 0 && issued < g.cfg.Degree; j-- {
				if int64(cur)+deltas[j] < 0 {
					return
				}
				cur = cur.AddLines(deltas[j])
				iss.Prefetch(cur.Base(), a.Now)
				issued++
			}
			return
		}
	}
}

// entryLive checks that buffer position idx still holds the entry written
// at generation gen (it may have been overwritten by wrap-around).
func (g *refGHB) entryLive(idx, gen int) bool {
	return idx >= 0 && gen > 0 && g.gen[idx] == gen
}

// refSMS is SMS with its filter and accumulation tables as plain slices
// of tagged entries, scanned whole on every access.
type refSMS struct {
	cfg            SMSConfig
	filter         []refSMSGen
	accum          []refSMSGen
	pht            []smsPattern
	phtBits        uint
	linesPerRegion uint
	clock          uint64
}

type refSMSGen struct {
	region  uint64
	key     uint64
	pattern uint64
	lru     uint64
	valid   bool
}

func newRefSMS(cfg SMSConfig) *refSMS {
	s := NewSMS(cfg) // same defaulting and sizing
	return &refSMS{
		cfg:            s.cfg,
		filter:         make([]refSMSGen, s.cfg.FilterEntries),
		accum:          make([]refSMSGen, s.cfg.AGTEntries),
		pht:            make([]smsPattern, len(s.pht)),
		phtBits:        s.phtBits,
		linesPerRegion: s.linesPerRegion,
	}
}

func refFindGen(table []refSMSGen, region uint64) *refSMSGen {
	for i := range table {
		if table[i].valid && table[i].region == region {
			return &table[i]
		}
	}
	return nil
}

func refVictimGen(table []refSMSGen) *refSMSGen {
	var v *refSMSGen
	for i := range table {
		if !table[i].valid {
			return &table[i]
		}
		if v == nil || table[i].lru < v.lru {
			v = &table[i]
		}
	}
	return v
}

func (s *refSMS) OnAccess(a *Access, iss Issuer) {
	s.clock++
	region := uint64(a.Addr) / uint64(s.cfg.RegionSize)
	off := uint((uint64(a.Addr) % uint64(s.cfg.RegionSize)) / memmodel.LineSize)
	bit := uint64(1) << off

	if g := refFindGen(s.accum, region); g != nil {
		g.pattern |= bit
		g.lru = s.clock
		return
	}
	if g := refFindGen(s.filter, region); g != nil {
		if g.pattern&bit != 0 {
			g.lru = s.clock
			return
		}
		promoted := *g
		promoted.pattern |= bit
		promoted.lru = s.clock
		g.valid = false
		v := refVictimGen(s.accum)
		if v.valid {
			slot := &s.pht[hashBits(v.key, s.phtBits)]
			*slot = smsPattern{key: v.key, pattern: v.pattern, valid: true}
		}
		*v = promoted
		return
	}
	key := triggerKey(a.PC, off)
	if p := &s.pht[hashBits(key, s.phtBits)]; p.valid && p.key == key {
		base := memmodel.Addr(region * uint64(s.cfg.RegionSize))
		for l := uint(0); l < s.linesPerRegion; l++ {
			if p.pattern&(uint64(1)<<l) != 0 && l != off {
				iss.Prefetch(base+memmodel.Addr(l*memmodel.LineSize), a.Now)
			}
		}
	}
	v := refVictimGen(s.filter)
	if v.valid {
		v.valid = false
	}
	*v = refSMSGen{region: region, key: key, pattern: bit, lru: s.clock, valid: true}
}
