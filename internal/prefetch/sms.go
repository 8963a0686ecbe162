package prefetch

import (
	"semloc/internal/memmodel"
)

// SMS implements spatial memory streaming (Somogyi et al., ISCA 2006), the
// strongest competing prefetcher in the paper's evaluation. SMS learns the
// spatial footprint of code within fixed-size memory regions:
//
//   - An access to a region with no active generation becomes the trigger;
//     the generation is keyed by (trigger PC, trigger offset in region).
//   - While the generation is active in the accumulation table (AGT), the
//     bit for every line touched in the region is set.
//   - When the generation ends (the region's entry is evicted from the
//     AGT), the accumulated pattern is stored in the pattern history table
//     (PHT) under its key.
//   - A later trigger with a matching key streams prefetches for every
//     line in the recorded pattern.
//
// Table 2 scaling: 2K-entry PHT, 32-entry AGT, 32-entry filter table,
// 2 kB regions, ~20 kB total.
type SMS struct {
	cfg            SMSConfig
	filter         smsTable // trigger seen, single access so far
	accum          smsTable // active generations accumulating patterns
	pht            []smsPattern
	phtBits        uint
	linesPerRegion uint
	clock          uint64
}

// SMSConfig parameterizes SMS.
type SMSConfig struct {
	// RegionSize is the spatial region size in bytes (Table 2: 2 kB).
	RegionSize int
	// FilterEntries and AGTEntries size the two small tables (Table 2: 32).
	FilterEntries, AGTEntries int
	// PHTEntries sizes the pattern history table (Table 2: 2K).
	PHTEntries int
}

// DefaultSMSConfig returns the Table 2 configuration.
func DefaultSMSConfig() SMSConfig {
	return SMSConfig{RegionSize: 2048, FilterEntries: 32, AGTEntries: 32, PHTEntries: 2048}
}

type smsGen struct {
	key     uint64 // trigger PC + offset
	pattern uint64 // bit per line in region
	lru     uint64
}

// smsTable is a small fully associative table of generations. The region
// tags live in their own dense array (smsFree marks an empty slot), so the
// per-access lookup scans 8 bytes a slot rather than whole entries. A
// region sits in at most one slot of one table: it enters the filter only
// on a miss in both tables and leaves it when promoted to the AGT.
type smsTable struct {
	regions []uint64
	gens    []smsGen
}

// smsFree tags an empty slot. A region number is an address divided by
// RegionSize, so it cannot reach smsFree at any RegionSize above one byte.
const smsFree = ^uint64(0)

func newSMSTable(n int) smsTable {
	t := smsTable{regions: make([]uint64, n), gens: make([]smsGen, n)}
	for i := range t.regions {
		t.regions[i] = smsFree
	}
	return t
}

type smsPattern struct {
	key     uint64
	pattern uint64
	valid   bool
}

// NewSMS creates an SMS prefetcher. Zero-value fields default to Table 2.
func NewSMS(cfg SMSConfig) *SMS {
	def := DefaultSMSConfig()
	if cfg.RegionSize == 0 {
		cfg.RegionSize = def.RegionSize
	}
	if cfg.FilterEntries == 0 {
		cfg.FilterEntries = def.FilterEntries
	}
	if cfg.AGTEntries == 0 {
		cfg.AGTEntries = def.AGTEntries
	}
	if cfg.PHTEntries == 0 {
		cfg.PHTEntries = def.PHTEntries
	}
	phtSize := 1
	for phtSize < cfg.PHTEntries {
		phtSize <<= 1
	}
	lines := uint(cfg.RegionSize / memmodel.LineSize)
	if lines > 64 {
		lines = 64 // pattern is one uint64
	}
	return &SMS{
		cfg:            cfg,
		filter:         newSMSTable(cfg.FilterEntries),
		accum:          newSMSTable(cfg.AGTEntries),
		pht:            make([]smsPattern, phtSize),
		phtBits:        log2(phtSize),
		linesPerRegion: lines,
	}
}

// Name implements Prefetcher.
func (*SMS) Name() string { return "sms" }

func (s *SMS) regionOf(a memmodel.Addr) (region uint64, lineOff uint) {
	region = uint64(a) / uint64(s.cfg.RegionSize)
	lineOff = uint((uint64(a) % uint64(s.cfg.RegionSize)) / memmodel.LineSize)
	return region, lineOff
}

func (s *SMS) phtSlot(key uint64) *smsPattern {
	return &s.pht[hashBits(key, s.phtBits)]
}

// find returns the slot holding region, or -1.
func (t *smsTable) find(region uint64) int {
	for i, r := range t.regions {
		if r == region {
			return i
		}
	}
	return -1
}

// victim picks an empty or else the LRU slot.
func (t *smsTable) victim() int {
	v := 0
	for i, r := range t.regions {
		if r == smsFree {
			return i
		}
		if t.gens[i].lru < t.gens[v].lru {
			v = i
		}
	}
	return v
}

// OnAccess implements Prefetcher.
func (s *SMS) OnAccess(a *Access, iss Issuer) {
	s.clock++
	region, off := s.regionOf(a.Addr)
	bit := uint64(1) << off

	// Already accumulating?
	if i := s.accum.find(region); i >= 0 {
		g := &s.accum.gens[i]
		g.pattern |= bit
		g.lru = s.clock
		return
	}
	// In the filter (one access so far)?
	if i := s.filter.find(region); i >= 0 {
		g := &s.filter.gens[i]
		if g.pattern&bit != 0 {
			// Same line again: still a single-line generation.
			g.lru = s.clock
			return
		}
		// Second distinct line: promote to the accumulation table.
		promoted := smsGen{key: g.key, pattern: g.pattern | bit, lru: s.clock}
		s.filter.regions[i] = smsFree
		v := s.accum.victim()
		if s.accum.regions[v] != smsFree {
			s.recordPattern(&s.accum.gens[v])
		}
		s.accum.regions[v], s.accum.gens[v] = region, promoted
		return
	}

	// New generation: this access is the trigger. Patterns are committed
	// to the PHT only when a generation is evicted from the accumulation
	// table (the paper's design: generations end on eviction), so the
	// 32-entry AGT is the window over which footprints mature.
	key := triggerKey(a.PC, off)
	// Predict from PHT before starting to accumulate.
	if p := s.phtSlot(key); p.valid && p.key == key {
		base := memmodel.Addr(region * uint64(s.cfg.RegionSize))
		for l := uint(0); l < s.linesPerRegion; l++ {
			if p.pattern&(uint64(1)<<l) != 0 && l != off {
				iss.Prefetch(base+memmodel.Addr(l*memmodel.LineSize), a.Now)
			}
		}
	}
	// A filter-table generation evicted here ends with a single line; such
	// patterns carry no spatial information and are dropped (as in the
	// paper).
	v := s.filter.victim()
	s.filter.regions[v], s.filter.gens[v] = region, smsGen{key: key, pattern: bit, lru: s.clock}
}

// recordPattern stores an evicted generation's footprint in the PHT.
func (s *SMS) recordPattern(g *smsGen) {
	slot := s.phtSlot(g.key)
	*slot = smsPattern{key: g.key, pattern: g.pattern, valid: true}
}

func triggerKey(pc uint64, off uint) uint64 {
	return pc<<6 | uint64(off)&63
}
