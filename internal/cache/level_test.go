package cache

import (
	"math/rand"
	"testing"

	"semloc/internal/memmodel"
)

// refVictim is the two-compare victim scan victim replaced, kept as the
// reference: it re-reads both running minima from the lru array on every
// way.
func refVictim(l *level, line memmodel.Line, now Cycle) int {
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
	lru, lruAny := -1, -1
	for i := base; i < end; i++ {
		if lruAny < 0 || l.lru[i] < l.lru[lruAny] {
			lruAny = i
		}
		if l.fill[i] <= now && (lru < 0 || l.lru[i] < l.lru[lru]) {
			lru = i
		}
	}
	if lru < 0 {
		lru = lruAny
	}
	return lru
}

// TestVictimMatchesReference fills random sets and requires victim to pick
// the same way as the reference scan. The sets mix stamp-0 ties (from
// LRU-inserted prefetches) with small and full-range stamps, in-flight
// fills at random density including whole sets in flight, and partially
// valid sets.
func TestVictimMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const now = Cycle(1000)
	for _, ways := range []int{1, 2, 4, 8, 16} {
		l := newLevel(LevelConfig{Name: "L", Size: 4 * ways * memmodel.LineSize, Ways: ways, Latency: 1, MSHRs: 1})
		sets := int(l.setMask) + 1
		for trial := 0; trial < 20000; trial++ {
			set := rng.Intn(sets)
			base := set * ways
			// Fill density: every way in flight, none, or a random share.
			var inFlight float64
			switch trial % 4 {
			case 0:
				inFlight = 1
			case 1:
				inFlight = 0
			default:
				inFlight = rng.Float64()
			}
			partial := trial%5 == 0
			valid := 0
			for i := base; i < base+ways; i++ {
				if partial && rng.Intn(3) == 0 {
					l.tags[i] = invalidTag
				} else {
					l.tags[i] = uint64(rng.Intn(1 << 20))
					valid++
				}
				switch rng.Intn(4) {
				case 0, 1:
					l.lru[i] = 0
				case 2:
					l.lru[i] = uint64(rng.Intn(4))
				default:
					l.lru[i] = rng.Uint64()
				}
				if rng.Float64() < inFlight {
					l.fill[i] = now + 1 + Cycle(rng.Intn(500))
				} else {
					l.fill[i] = now - Cycle(rng.Intn(2))
				}
			}
			l.validWays[set] = uint8(valid)
			line := memmodel.Line(uint64(rng.Intn(1<<20))&^l.setMask | uint64(set))
			if got, want := l.victim(line, now), refVictim(l, line, now); got != want {
				t.Fatalf("ways=%d set=%d: victim = way %d, reference = way %d (lru %v, fill %v, now %d)",
					ways, set, got-base, want-base, l.lru[base:base+ways], l.fill[base:base+ways], now)
			}
		}
	}
}
