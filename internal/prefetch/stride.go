package prefetch

import (
	"semloc/internal/memmodel"
)

// Stride is a classic PC-indexed stride prefetcher (Fu, Patel & Janssens,
// MICRO 1992). Each load site tracks its last address and stride with a
// two-bit confidence counter; confident entries prefetch Degree strides
// ahead. The paper evaluates it but omits it from the plots because its
// performance trailed the other prefetchers; it is included here both as a
// baseline and for the training-speed comparison of §7.3.
type Stride struct {
	cfg     StrideConfig
	entries []strideEntry
	mask    uint64
}

// StrideConfig parameterizes the stride prefetcher.
type StrideConfig struct {
	// TableSize is the number of PC-indexed entries (power of two).
	TableSize int
	// Degree is how many strides ahead to prefetch once confident.
	Degree int
}

// DefaultStrideConfig matches the scaled baseline: 2K entries, degree 3.
func DefaultStrideConfig() StrideConfig {
	return StrideConfig{TableSize: 2048, Degree: 3}
}

type strideEntry struct {
	tag      uint64
	lastAddr memmodel.Addr
	stride   int64
	conf     uint8 // 0..3; >=2 issues prefetches
	valid    bool
}

// NewStride creates a stride prefetcher. Zero-value config fields default.
func NewStride(cfg StrideConfig) *Stride {
	def := DefaultStrideConfig()
	if cfg.TableSize == 0 {
		cfg.TableSize = def.TableSize
	}
	if cfg.Degree == 0 {
		cfg.Degree = def.Degree
	}
	size := 1
	for size < cfg.TableSize {
		size <<= 1
	}
	return &Stride{cfg: cfg, entries: make([]strideEntry, size), mask: uint64(size - 1)}
}

// Name implements Prefetcher.
func (*Stride) Name() string { return "stride" }

// OnAccess implements Prefetcher.
func (s *Stride) OnAccess(a *Access, iss Issuer) {
	idx := (a.PC >> 2) & s.mask
	e := &s.entries[idx]
	if !e.valid || e.tag != a.PC {
		*e = strideEntry{tag: a.PC, lastAddr: a.Addr, valid: true}
		return
	}
	stride := int64(a.Addr) - int64(e.lastAddr)
	if stride == e.stride && stride != 0 {
		if e.conf < 3 {
			e.conf++
		}
	} else {
		if e.conf > 0 {
			e.conf--
		}
		if e.conf == 0 {
			e.stride = stride
		}
	}
	e.lastAddr = a.Addr
	if e.conf >= 2 && e.stride != 0 {
		// A target below address 0 ends the run rather than wrapping.
		for d := 1; d <= s.cfg.Degree; d++ {
			target := int64(a.Addr) + e.stride*int64(d)
			if target < 0 {
				break
			}
			iss.Prefetch(memmodel.Addr(target), a.Now)
		}
	}
}
