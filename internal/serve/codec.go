package serve

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
)

// This file holds the two frame encodings. Every frame has a plain
// encoding/json form, one object per line (AppendFrame,
// DecodeFrameInto). Batch frames also have a length-prefixed binary form
// (AppendBinaryFrame, decodeBinary), spoken only on connections that
// negotiated it at hello (Frame.Binary) — it is the steady-state serving
// path and runs at zero allocations once warm. DESIGN.md §17 has the
// byte layout.

// Binary batch frame markers. Neither byte can start a JSON text (nor a
// UTF-8 sequence), so a reader tells the two encodings apart from a
// frame's first byte.
const (
	binaryAccesses byte = 0xb1 // batch request: Accesses set
	binaryResults  byte = 0xb2 // batch reply: Results set
)

// Per-access flags of a binary request.
const (
	accStore byte = 1 << iota
	accHints
	accHintsValid
)

// Per-decision flags of a binary reply; bits 2-4 index binaryCodes.
const (
	decDegraded byte = 1 << iota
	decReplayed
	decCodeShift = 2
)

// binaryCodes numbers the per-item codes a binary reply can carry; index
// 0 is no code.
var binaryCodes = [...]string{"", CodeBadFrame, CodeProtocol, CodeStaleSeq, CodeShuttingDown, CodeSessionClosed}

// Smallest encodings of one access (flags plus five one-byte varints) and
// one decision (flags plus two empty list counts): a count is checked
// against the bytes left before any storage grows.
const (
	minAccessBytes   = 6
	minDecisionBytes = 3
)

// reset clears f for reuse, keeping slice capacities and parking any
// Hints allocation for the next decode.
func (f *Frame) reset() {
	spare := f.spareHints
	if f.Hints != nil {
		spare = f.Hints
	}
	pf, sh := f.Prefetch[:0], f.Shadow[:0]
	accs, res := f.Accesses[:0], f.Results[:0]
	*f = Frame{Prefetch: pf, Shadow: sh, Accesses: accs, Results: res, spareHints: spare}
}

// AppendFrame validates f and appends its newline-terminated encoding/json
// line to dst, returning the extended buffer.
func AppendFrame(dst []byte, f *Frame) ([]byte, error) {
	if err := f.Validate(); err != nil {
		return dst, err
	}
	b, err := json.Marshal(f)
	if err != nil {
		return dst, fmt.Errorf("serve: encoding frame: %w", err)
	}
	if len(b) > MaxFrameBytes {
		return dst, fmt.Errorf("serve: encoded frame of %d bytes exceeds limit %d", len(b), MaxFrameBytes)
	}
	return append(append(dst, b...), '\n'), nil
}

// EncodeFrame renders f as one newline-terminated wire line.
func EncodeFrame(f *Frame) ([]byte, error) {
	return AppendFrame(nil, f)
}

// DecodeFrame parses and validates one frame from a single line (without
// the trailing newline). It is the fuzz target FuzzDecodeFrame exercises:
// it must never panic and never accept a frame Validate rejects.
func DecodeFrame(line []byte) (*Frame, error) {
	var f Frame
	if err := DecodeFrameInto(line, &f); err != nil {
		return nil, err
	}
	return &f, nil
}

// DecodeFrameInto parses and validates one JSON line into f, replacing
// its contents. A clean struct keeps encoding/json's element reuse from
// leaking stale fields into sparsely populated batch items.
func DecodeFrameInto(line []byte, f *Frame) error {
	*f = Frame{}
	if len(line) > MaxFrameBytes {
		return fmt.Errorf("serve: frame of %d bytes exceeds limit %d", len(line), MaxFrameBytes)
	}
	if err := json.Unmarshal(line, f); err != nil {
		return fmt.Errorf("serve: bad frame: %w", err)
	}
	return f.Validate()
}

// AppendWireFrame appends f as it travels on a connection that did (bin)
// or did not negotiate the binary encoding: batch frames in the binary
// form when it did, every other frame as a JSON line.
func AppendWireFrame(dst []byte, f *Frame, bin bool) ([]byte, error) {
	if bin && f.Type == FrameBatch {
		return AppendBinaryFrame(dst, f)
	}
	return AppendFrame(dst, f)
}

// AppendBinaryFrame validates a batch frame and appends its binary form
// to dst: a marker byte, the uvarint payload length, then the payload.
// Steady state appends into a reused buffer without allocating.
func AppendBinaryFrame(dst []byte, f *Frame) ([]byte, error) {
	if f.Type != FrameBatch {
		return dst, fmt.Errorf("serve: %s frames have no binary form", f.Type)
	}
	if err := f.Validate(); err != nil {
		return dst, err
	}
	mark := len(dst)
	// Reserve the widest prefix a MaxFrameBytes length needs; the payload
	// moves down once its length is known.
	dst = append(dst, binaryAccesses, 0, 0, 0)
	body := len(dst)
	if len(f.Accesses) > 0 {
		dst = binary.AppendUvarint(dst, uint64(len(f.Accesses)))
		dst = binary.AppendUvarint(dst, f.Accesses[0].Seq)
		var pc, addr uint64
		for i := range f.Accesses {
			a := &f.Accesses[i]
			var flags byte
			if a.Store {
				flags |= accStore
			}
			if a.Hints != nil {
				flags |= accHints
				if a.Hints.Valid {
					flags |= accHintsValid
				}
			}
			dst = append(dst, flags)
			dst = binary.AppendVarint(dst, int64(a.PC-pc))
			dst = binary.AppendVarint(dst, int64(a.Addr-addr))
			pc, addr = a.PC, a.Addr
			dst = binary.AppendUvarint(dst, a.Value)
			dst = binary.AppendUvarint(dst, a.Reg)
			dst = binary.AppendUvarint(dst, uint64(a.BranchHist))
			if h := a.Hints; h != nil {
				dst = binary.AppendUvarint(dst, uint64(h.TypeID))
				dst = binary.AppendUvarint(dst, uint64(h.LinkOffset))
				dst = append(dst, h.RefForm)
			}
		}
	} else {
		dst[mark] = binaryResults
		dst = binary.AppendUvarint(dst, uint64(len(f.Results)))
		dst = binary.AppendUvarint(dst, f.Results[0].Seq)
		var base uint64
		for i := range f.Results {
			r := &f.Results[i]
			code := codeIndex(r.Code)
			if code < 0 {
				return dst[:mark], fmt.Errorf("serve: result code %q has no binary form", r.Code)
			}
			flags := byte(code) << decCodeShift
			if r.Degraded {
				flags |= decDegraded
			}
			if r.Replayed {
				flags |= decReplayed
			}
			dst = append(dst, flags)
			dst, base = appendAddrs(dst, r.Prefetch, base)
			dst, base = appendAddrs(dst, r.Shadow, base)
		}
	}
	n := len(dst) - body
	if n > MaxFrameBytes {
		return dst[:mark], fmt.Errorf("serve: encoded frame of %d bytes exceeds limit %d", n, MaxFrameBytes)
	}
	var prefix [3]byte
	k := binary.PutUvarint(prefix[:], uint64(n))
	copy(dst[mark+1+k:], dst[body:])
	copy(dst[mark+1:], prefix[:k])
	return dst[:mark+1+k+n], nil
}

// appendAddrs appends a count and the addresses, each zigzag-delta-coded
// against the address before it in the frame.
func appendAddrs(dst []byte, addrs []uint64, base uint64) ([]byte, uint64) {
	dst = binary.AppendUvarint(dst, uint64(len(addrs)))
	for _, a := range addrs {
		dst = binary.AppendVarint(dst, int64(a-base))
		base = a
	}
	return dst, base
}

func codeIndex(code string) int {
	if code == "" {
		return 0
	}
	for i, c := range binaryCodes {
		if c == code {
			return i
		}
	}
	return -1
}

// decodeBinary decodes one binary batch payload (the bytes after the
// marker and length prefix) into f, reusing its slices and Hints. Every
// count is checked against MaxBatch or the bytes left before anything
// grows, so a forged count cannot make the decoder allocate more than
// the frame's own length warrants.
func decodeBinary(marker byte, p []byte, f *Frame) error {
	f.reset()
	f.Type, f.fromBinary = FrameBatch, true
	d := binDecoder{b: p}
	n, first := d.uvarint(), d.uvarint()
	// A nonzero first seq that does not wrap within the batch makes the
	// implied seqs valid: the decoded frame needs no Validate pass.
	if d.bad || n == 0 || n > MaxBatch || first == 0 || first+(n-1) < first {
		return errBinaryHeader
	}
	switch marker {
	case binaryAccesses:
		if n*minAccessBytes > uint64(d.left()) {
			return errBinaryMalformed
		}
		var pc, addr uint64
		for i := uint64(0); i < n && !d.bad; i++ {
			var a *BatchAccess
			f.Accesses, a = growAccess(f.Accesses)
			flags := d.u8()
			if flags&^(accStore|accHints|accHintsValid) != 0 || flags&(accHints|accHintsValid) == accHintsValid {
				return errBinaryFlags
			}
			pc += uint64(d.varint())
			addr += uint64(d.varint())
			a.Seq, a.PC, a.Addr = first+i, pc, addr
			a.Value, a.Reg, a.BranchHist = d.uvarint(), d.uvarint(), d.uint16()
			a.Store = flags&accStore != 0
			if flags&accHints != 0 {
				h := a.spareHints
				if h == nil {
					h = new(Hints)
				}
				a.Hints, a.spareHints = h, nil
				*h = Hints{Valid: flags&accHintsValid != 0, TypeID: d.uint16(), LinkOffset: d.uint16(), RefForm: d.u8()}
			}
		}
	case binaryResults:
		if n*minDecisionBytes > uint64(d.left()) {
			return errBinaryMalformed
		}
		var base uint64
		for i := uint64(0); i < n && !d.bad; i++ {
			var r *BatchDecision
			f.Results, r = growResult(f.Results)
			flags := d.u8()
			code := int(flags >> decCodeShift)
			if flags&^(decDegraded|decReplayed|7<<decCodeShift) != 0 || code >= len(binaryCodes) {
				return errBinaryFlags
			}
			r.Seq, r.Code = first+i, binaryCodes[code]
			r.Degraded, r.Replayed = flags&decDegraded != 0, flags&decReplayed != 0
			r.Prefetch, base = d.addrs(r.Prefetch, base)
			r.Shadow, base = d.addrs(r.Shadow, base)
		}
	default:
		return errBinaryHeader
	}
	if d.bad || d.left() != 0 {
		return errBinaryMalformed
	}
	return nil
}

// Binary decode errors are static: rejecting a hostile frame costs no
// allocation either.
var (
	errBinaryHeader    = errors.New("serve: binary batch header invalid")
	errBinaryMalformed = errors.New("serve: binary batch frame truncated, malformed or with trailing bytes")
	errBinaryFlags     = errors.New("serve: binary batch item flags invalid")
)

// binDecoder reads varints from a binary payload. The first failure
// marks it bad and exhausts it, so every later read fails too.
type binDecoder struct {
	b   []byte
	i   int
	bad bool
}

func (d *binDecoder) left() int { return len(d.b) - d.i }

func (d *binDecoder) fail() {
	d.bad, d.i = true, len(d.b)
}

func (d *binDecoder) u8() byte {
	if d.i >= len(d.b) {
		d.fail()
		return 0
	}
	c := d.b[d.i]
	d.i++
	return c
}

// uvarint reads one uvarint, taking the common one-byte case inline.
func (d *binDecoder) uvarint() uint64 {
	if d.i < len(d.b) && d.b[d.i] < 0x80 {
		d.i++
		return uint64(d.b[d.i-1])
	}
	v, k := binary.Uvarint(d.b[d.i:])
	if k <= 0 {
		d.fail()
		return 0
	}
	d.i += k
	return v
}

// varint reads one zigzag varint (binary.AppendVarint's form).
func (d *binDecoder) varint() int64 {
	u := d.uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

func (d *binDecoder) uint16() uint16 {
	v := d.uvarint()
	if v > 1<<16-1 {
		d.fail()
	}
	return uint16(v)
}

// addrs decodes a count and that many delta-coded addresses into dst
// (reused). Each address takes at least one byte, so a count above the
// bytes left fails before dst grows.
func (d *binDecoder) addrs(dst []uint64, base uint64) ([]uint64, uint64) {
	n := d.uvarint()
	if n > uint64(d.left()) {
		d.fail()
		return dst, base
	}
	for ; n > 0; n-- {
		base += uint64(d.varint())
		dst = append(dst, base)
	}
	return dst, base
}

// growAccess extends s by one zeroed element, recycling capacity and any
// parked Hints allocation.
func growAccess(s []BatchAccess) ([]BatchAccess, *BatchAccess) {
	if len(s) < cap(s) {
		s = s[:len(s)+1]
		a := &s[len(s)-1]
		spare := a.spareHints
		if a.Hints != nil {
			spare = a.Hints
		}
		*a = BatchAccess{spareHints: spare}
		return s, a
	}
	s = append(s, BatchAccess{})
	return s, &s[len(s)-1]
}

// growResult extends s by one zeroed element, recycling slice capacity.
func growResult(s []BatchDecision) ([]BatchDecision, *BatchDecision) {
	if len(s) < cap(s) {
		s = s[:len(s)+1]
		r := &s[len(s)-1]
		*r = BatchDecision{Prefetch: r.Prefetch[:0], Shadow: r.Shadow[:0]}
		return s, r
	}
	s = append(s, BatchDecision{})
	return s, &s[len(s)-1]
}
