package prefetch

import (
	"semloc/internal/memmodel"
)

// GHB implements the global history buffer prefetcher of Nesbit & Smith
// (HPCA 2004) with delta correlation, in both localizations the paper
// compares against (§7):
//
//   - G/DC  (global, delta correlation): one global stream of miss
//     addresses; the last two deltas form the correlation key.
//   - PC/DC (per-PC, delta correlation): the history buffer is localized
//     into per-PC streams through the index table.
//
// The modelled hardware is a circular buffer of the most recent miss
// addresses whose entries of one stream are chained by buffer index. On
// each access the prefetcher walks its stream's recent deltas, searches for
// the previous occurrence of the current delta pair, and prefetches the
// deltas that followed it.
//
// In software each index slot instead keeps its stream's newest lines in a
// newest-first window (ghbStream), so the walk is a slice read rather than
// a chase through the ring. The ring itself is implied by a write tick: it
// takes one entry per trained access, so the entry written at tick t is
// overwritten at tick t+BufferSize, and the chain walk would stop at the
// first such entry. A window entry is therefore live iff its tick is newer
// than tick−BufferSize, which makes the prefetches identical to the walk.
//
// Table 2 scaling: 2K-entry GHB, history (correlation) length 3, prefetch
// degree 3, ~32 kB total.
type GHB struct {
	cfg   GHBConfig
	tick  int // trained accesses so far
	index []ghbIndex
	ibits uint
}

// GHBLocalization selects the stream localization.
type GHBLocalization uint8

// Localizations.
const (
	// LocalizeGlobal keys the single global access stream (G/DC).
	LocalizeGlobal GHBLocalization = iota
	// LocalizePC localizes streams by load PC (PC/DC).
	LocalizePC
)

// GHBConfig parameterizes a GHB prefetcher.
type GHBConfig struct {
	// Localization picks G/DC or PC/DC.
	Localization GHBLocalization
	// BufferSize is the circular history buffer size (Table 2: 2K).
	BufferSize int
	// IndexSize is the index table size (power of two).
	IndexSize int
	// HistoryLength is the number of trailing deltas correlated (Table 2: 3;
	// the delta-pair key uses the last two, matching two-delta correlation).
	HistoryLength int
	// Degree is the number of prefetches issued per match (Table 2: 3).
	Degree int
	// TrainOnHits extends training to all accesses; by default the GHB
	// observes only L1 misses, the classic trigger.
	TrainOnHits bool
}

// DefaultGHBConfig returns the Table 2 configuration for the given flavour.
func DefaultGHBConfig(loc GHBLocalization) GHBConfig {
	return GHBConfig{
		Localization:  loc,
		BufferSize:    2048,
		IndexSize:     1024,
		HistoryLength: 3,
		Degree:        3,
	}
}

// ghbWalk is the most stream entries one access looks back over.
const ghbWalk = 64

// ghbStream holds one stream's newest ghbWalk lines and their write ticks,
// newest first at [head, head+n). Each entry is written at i and i+ghbWalk,
// so the window is always contiguous.
type ghbStream struct {
	lines [2 * ghbWalk]memmodel.Line
	ticks [2 * ghbWalk]int
	head  int
	n     int
}

type ghbIndex struct {
	key    uint64
	stream *ghbStream // nil until the slot is first trained
}

// NewGHB creates a GHB prefetcher. Zero-value config fields default to the
// flavour's Table 2 values.
func NewGHB(cfg GHBConfig) *GHB {
	def := DefaultGHBConfig(cfg.Localization)
	if cfg.BufferSize == 0 {
		cfg.BufferSize = def.BufferSize
	}
	if cfg.IndexSize == 0 {
		cfg.IndexSize = def.IndexSize
	}
	if cfg.HistoryLength == 0 {
		cfg.HistoryLength = def.HistoryLength
	}
	if cfg.Degree == 0 {
		cfg.Degree = def.Degree
	}
	isize := 1
	for isize < cfg.IndexSize {
		isize <<= 1
	}
	return &GHB{
		cfg:   cfg,
		index: make([]ghbIndex, isize),
		ibits: log2(isize),
	}
}

// Name implements Prefetcher.
func (g *GHB) Name() string {
	if g.cfg.Localization == LocalizePC {
		return "ghb-pcdc"
	}
	return "ghb-gdc"
}

func (g *GHB) streamKey(a *Access) uint64 {
	if g.cfg.Localization == LocalizePC {
		return a.PC
	}
	return 0
}

// OnAccess implements Prefetcher.
func (g *GHB) OnAccess(a *Access, iss Issuer) {
	if !g.cfg.TrainOnHits && !a.MissedL1 {
		return
	}
	key := g.streamKey(a)
	slot := &g.index[hashBits(key, g.ibits)]
	if slot.stream == nil {
		slot.stream = new(ghbStream)
	} else if slot.key != key {
		slot.stream.n = 0 // a new stream takes the slot over
	}
	slot.key = key
	g.tick++
	lines := slot.stream.push(memmodel.LineOf(a.Addr), g.tick, g.tick-g.cfg.BufferSize)

	// Need at least 3 lines for two trailing deltas plus a match window.
	n := len(lines)
	if n < max(g.cfg.HistoryLength, 2)+2 {
		return
	}
	// Delta i is lines[i] - lines[i+1]; delta 0 is the most recent.
	// Correlation key: the last two deltas (standard delta-pair
	// correlation). Find the previous position with the same pair.
	k0, k1 := lines[0].Delta(lines[1]), lines[1].Delta(lines[2])
	for i := 2; i+2 < n; i++ {
		if lines[i].Delta(lines[i+1]) != k0 || lines[i+1].Delta(lines[i+2]) != k1 {
			continue
		}
		// Replay the deltas that followed the earlier occurrence (moving
		// toward the present), i.e. deltas i-1, i-2, ... A target below
		// address 0 ends the replay rather than wrapping.
		cur := lines[0]
		for j := i - 1; j >= 0 && j >= i-g.cfg.Degree; j-- {
			d := lines[j].Delta(lines[j+1])
			if int64(cur)+d < 0 {
				return
			}
			cur = cur.AddLines(d)
			iss.Prefetch(cur.Base(), a.Now)
		}
		return
	}
}

// push records line as the stream's newest entry, written at tick, and
// returns the live window newest first: the entries written after tick
// dead, which the modelled ring would still hold.
func (s *ghbStream) push(line memmodel.Line, tick, dead int) []memmodel.Line {
	s.head = (s.head + ghbWalk - 1) % ghbWalk
	s.lines[s.head], s.lines[s.head+ghbWalk] = line, line
	s.ticks[s.head], s.ticks[s.head+ghbWalk] = tick, tick
	s.n = min(s.n+1, ghbWalk)
	// Ticks fall toward the window's end, so the live entries are a prefix.
	// An entry never revives, so dropping the dead tail keeps the next
	// check O(1).
	if ticks := s.ticks[s.head : s.head+s.n]; ticks[s.n-1] <= dead {
		s.n = 0
		for s.n < len(ticks) && ticks[s.n] > dead {
			s.n++
		}
	}
	return s.lines[s.head : s.head+s.n]
}
