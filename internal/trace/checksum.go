package trace

import "math/bits"

// Checksum returns a deterministic digest of the trace's name and every
// record field. The experiment runner records it when a trace enters the
// shared cache and re-verifies it after every job batch, turning any write
// to supposedly immutable shared trace data into a loud failure instead of
// a silent cross-run corruption (see DESIGN.md, "Parallel execution &
// determinism contract").
//
// The re-verification is serial work at the end of every batch, so records
// are hashed a 64-bit word at a time: six words per record, each folded in
// by an xxhash64-style round (multiply, xor, rotate, multiply). Every round
// is a bijection of both the running hash and the word, so changing any
// single field always changes the digest. The digest lives only in memory
// and is never persisted.
func (t *Trace) Checksum() uint64 {
	const (
		prime1 = 0x9e3779b185ebca87
		prime2 = 0xc2b2ae3d27d4eb4f
	)
	h := uint64(prime1)
	mix := func(v uint64) {
		h = bits.RotateLeft64(h^(v*prime2), 31) * prime1
	}
	for i := 0; i < len(t.Name); i++ {
		mix(uint64(t.Name[i]))
	}
	mix(uint64(len(t.Name)))
	for i := range t.Records {
		r := &t.Records[i]
		mix(r.PC)
		mix(uint64(r.Addr))
		mix(r.Value)
		mix(r.Reg)
		mix(uint64(uint32(r.Dep))<<32 | uint64(r.Count))
		flags := uint64(r.Kind)<<8 | uint64(r.Size)
		if r.Taken {
			flags |= 1 << 16
		}
		if r.Hints.Valid {
			flags |= 1 << 17
		}
		flags |= uint64(r.Hints.TypeID) << 18
		flags |= uint64(r.Hints.LinkOffset) << 34
		flags |= uint64(r.Hints.RefForm) << 50
		mix(flags)
	}
	return h
}
