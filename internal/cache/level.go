package cache

import (
	"semloc/internal/memmodel"
)

// wayMeta carries the per-line status bits that demand touches and
// evictions consult. The timing-critical per-way state (tag, fill time,
// LRU stamp) lives in the level's flat word arrays instead — see level.
type wayMeta struct {
	// prefetched marks lines brought in by a prefetch that have not yet been
	// touched by a demand access.
	prefetched bool
	// everUsed marks prefetched lines that were eventually demanded.
	everUsed bool
	// dirty marks lines written since fill (write-back policy).
	dirty bool
}

// LevelStats counts events at one level.
type LevelStats struct {
	Name          string
	Accesses      uint64 // demand accesses
	Misses        uint64 // demand misses (including in-flight merges)
	InFlightHits  uint64 // demand accesses merged with an outstanding fill
	Prefetches    uint64 // prefetch fills installed
	PrefetchDrops uint64 // prefetches dropped (already present or in flight)
	UselessEvicts uint64 // prefetched-but-never-used lines evicted
	Writebacks    uint64 // dirty lines written back on eviction
}

// MissRate returns demand misses / demand accesses.
func (s LevelStats) MissRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

// invalidTag marks an empty slot in the packed tag array. Line numbers are
// block addresses (full addresses shifted right), so no real line reaches
// the all-ones value.
const invalidTag = ^uint64(0)

// level is one cache level's state, stored structure-of-arrays: every
// per-way field the lookup and victim scans read is a flat word array
// indexed set*Ways+way, so each scan walks one or two contiguous cache
// lines instead of striding across per-way structs. A way is valid iff its
// tags slot differs from invalidTag.
type level struct {
	cfg     LevelConfig
	setMask uint64
	// tags holds each way's line number (invalidTag = empty slot).
	tags []uint64
	// fill holds the cycle at which each line's data arrives. A line may be
	// "present" in the tag array while still in flight (fill in the future);
	// a demand access then merges with the outstanding fill.
	fill []Cycle
	// lru holds each way's last-touch stamp for replacement.
	lru  []uint64
	meta []wayMeta
	// validWays counts valid ways per set, so steady-state victim
	// selection (every set full — the permanent condition once warm) skips
	// the tag scan for empty slots entirely.
	validWays []uint8
	lruClock  uint64
	mshr      mshrFile
	stats     LevelStats
}

func newLevel(cfg LevelConfig) *level {
	sets := cfg.Sets()
	n := sets * cfg.Ways
	l := &level{
		cfg:       cfg,
		setMask:   uint64(sets - 1),
		tags:      make([]uint64, n),
		fill:      make([]Cycle, n),
		lru:       make([]uint64, n),
		meta:      make([]wayMeta, n),
		validWays: make([]uint8, sets),
		mshr:      newMSHRFile(cfg.MSHRs),
	}
	for i := range l.tags {
		l.tags[i] = invalidTag
	}
	l.stats.Name = cfg.Name
	return l
}

// reset returns the level to its just-constructed state in place, keeping
// the array and MSHR storage (the run-scratch pool recycles hierarchies
// across simulation runs).
func (l *level) reset() {
	for i := range l.tags {
		l.tags[i] = invalidTag
	}
	clear(l.fill)
	clear(l.lru)
	clear(l.meta)
	clear(l.validWays)
	l.lruClock = 0
	l.mshr.reset()
	l.stats = LevelStats{Name: l.cfg.Name}
}

// lookup returns the flat way index holding line, or -1.
func (l *level) lookup(line memmodel.Line) int {
	base := int(uint64(line)&l.setMask) * l.cfg.Ways
	tags := l.tags[base : base+l.cfg.Ways]
	for i := range tags {
		if tags[i] == uint64(line) {
			return base + i
		}
	}
	return -1
}

// touch updates LRU state for the way at flat index wi.
func (l *level) touch(wi int) {
	l.lruClock++
	l.lru[wi] = l.lruClock
}

// victim picks the replacement way's flat index in line's set: an invalid
// way if one exists, otherwise the LRU way. Lines still in flight (fill
// beyond now) are protected from replacement when possible, matching
// MSHR-held fills. Among equal stamps (LRU-inserted prefetches all carry
// stamp 0) the lowest way wins.
//
// One pass over the set keeps two running minima in locals: the oldest
// landed way and, as the fallback when every way is in flight, the oldest
// way of all.
func (l *level) victim(line memmodel.Line, now Cycle) int {
	set := int(uint64(line) & l.setMask)
	base := set * l.cfg.Ways
	end := base + l.cfg.Ways
	if int(l.validWays[set]) < l.cfg.Ways {
		for i := base; i < end; i++ {
			if l.tags[i] == invalidTag {
				return i
			}
		}
	}
	lru := l.lru[base:end]
	fill := l.fill[base:end]
	fill = fill[:len(lru)]
	anyWay, anyStamp := 0, lru[0]
	way, stamp := -1, uint64(0)
	for i, s := range lru {
		if s < anyStamp {
			anyWay, anyStamp = i, s
		}
		if fill[i] <= now && (way < 0 || s < stamp) {
			way, stamp = i, s
		}
	}
	if way < 0 {
		way = anyWay
	}
	return base + way
}

// install places line into the cache, filling at fillTime, evicting as
// needed. It returns the flat index of the way installed into. When
// lruInsert is set the line lands at LRU position instead of MRU
// (prefetch-conscious insertion). The second result reports whether a
// dirty line was displaced so the hierarchy can generate write-back
// traffic.
func (l *level) install(line memmodel.Line, now, fillTime Cycle, prefetched, lruInsert bool) (wi int, dirtyEvict bool) {
	wi = l.victim(line, now)
	if l.tags[wi] != invalidTag {
		m := l.meta[wi]
		if m.prefetched && !m.everUsed {
			l.stats.UselessEvicts++
		}
		if m.dirty {
			l.stats.Writebacks++
			dirtyEvict = true
		}
	} else {
		l.validWays[uint64(line)&l.setMask]++
	}
	l.tags[wi] = uint64(line)
	l.fill[wi] = fillTime
	l.meta[wi] = wayMeta{prefetched: prefetched}
	if lruInsert {
		l.lru[wi] = 0
	} else {
		l.touch(wi)
	}
	return wi, dirtyEvict
}

// FlushNeverUsed scans for prefetched-but-never-demanded lines still
// resident at end of simulation and counts them as useless.
func (l *level) flushNeverUsed() {
	for i := range l.tags {
		if l.tags[i] != invalidTag && l.meta[i].prefetched && !l.meta[i].everUsed {
			l.stats.UselessEvicts++
		}
	}
}

// mshrFile models a fixed number of miss-status holding registers. A miss
// occupies a register until its fill completes; when all registers are busy
// a new miss waits for the earliest release.
//
// busyUntil is kept as an implicit min-heap so acquire (which always wants
// the earliest-free register) peeks the root instead of scanning the file.
// Registers are interchangeable — only the multiset of release times is
// observable (acquire's start is its minimum, free counts it) — so heap
// order, which permutes register indexes relative to the old linear scan,
// cannot change any result.
type mshrFile struct {
	busyUntil []Cycle
}

func newMSHRFile(n int) mshrFile {
	return mshrFile{busyUntil: make([]Cycle, n)}
}

// reset frees every register in place (all-zero is a valid heap).
func (m *mshrFile) reset() {
	clear(m.busyUntil)
}

// acquire reserves a register for a miss issued at time t. It returns the
// actual start time (>= t; delayed if all registers are busy) and the
// register index, which the caller must hand back to hold along with the
// fill's completion time before the next acquire.
func (m *mshrFile) acquire(t Cycle) (start Cycle, idx int) {
	start = t
	if b := m.busyUntil[0]; b > t {
		start = b
	}
	return start, 0
}

// hold marks the register acquire returned busy until the given time and
// restores the heap. until never precedes the popped minimum, so a
// sift-down from idx suffices.
func (m *mshrFile) hold(idx int, until Cycle) {
	b := m.busyUntil
	for {
		c := 2*idx + 1
		if c >= len(b) {
			break
		}
		if r := c + 1; r < len(b) && b[r] < b[c] {
			c = r
		}
		if b[c] >= until {
			break
		}
		b[idx] = b[c]
		idx = c
	}
	b[idx] = until
}

// free counts registers free at time t.
func (m *mshrFile) free(t Cycle) int {
	n := 0
	for _, b := range m.busyUntil {
		if b <= t {
			n++
		}
	}
	return n
}
