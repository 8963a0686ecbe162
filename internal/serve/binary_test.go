package serve

import (
	"bytes"
	"encoding/binary"
	"io"
	"net"
	"testing"
	"time"

	"semloc/internal/obs"
)

// sameBatch reports whether two batch frames carry the same accesses or
// results, treating nil and empty lists alike.
func sameBatch(a, b *Frame) bool {
	if a.Type != b.Type || len(a.Accesses) != len(b.Accesses) || len(a.Results) != len(b.Results) {
		return false
	}
	for i := range a.Accesses {
		x, y := a.Accesses[i], b.Accesses[i]
		if (x.Hints == nil) != (y.Hints == nil) || x.Hints != nil && *x.Hints != *y.Hints {
			return false
		}
		x.Hints, y.Hints, x.spareHints, y.spareHints = nil, nil, nil, nil
		if x != y {
			return false
		}
	}
	for i := range a.Results {
		x, y := &a.Results[i], &b.Results[i]
		if x.Seq != y.Seq || x.Degraded != y.Degraded || x.Replayed != y.Replayed || x.Code != y.Code ||
			!equalU64(x.Prefetch, y.Prefetch) || !equalU64(x.Shadow, y.Shadow) {
			return false
		}
	}
	return true
}

// readBinary decodes one complete wire frame through a FrameReader.
func readBinary(b []byte, f *Frame) error {
	return NewFrameReader(bytes.NewReader(b)).ReadInto(f)
}

// binaryFrames are batch frames covering every field of the binary
// layout: extreme values, deltas that wrap, hints with and without
// Valid, per-item codes and flags, empty lists.
func binaryFrames() []*Frame {
	return []*Frame{
		{Type: FrameBatch, Accesses: []BatchAccess{
			{Seq: 10, PC: 0x400123, Addr: 0xdeadbe00, Value: 7, Reg: 3, BranchHist: 0xabcd, Store: true,
				Hints: &Hints{Valid: true, TypeID: 2, LinkOffset: 8, RefForm: 1}},
			{Seq: 11, Addr: 0xdeadbe40},
			{Seq: 12, PC: 1<<64 - 1, Addr: 1<<64 - 1, Value: 1<<64 - 1, Reg: 1<<64 - 1, BranchHist: 1<<16 - 1,
				Hints: &Hints{TypeID: 1<<16 - 1, LinkOffset: 1<<16 - 1, RefForm: 255}},
			{Seq: 13, PC: 1, Addr: 64},
		}},
		{Type: FrameBatch, Results: []BatchDecision{
			{Seq: 1<<64 - 4, Prefetch: []uint64{0xdeadbe40, 0}, Shadow: []uint64{1<<64 - 1}},
			{Seq: 1<<64 - 3, Replayed: true},
			{Seq: 1<<64 - 2, Degraded: true, Prefetch: []uint64{64}},
			{Seq: 1<<64 - 1, Code: CodeStaleSeq},
		}},
		{Type: FrameBatch, Accesses: batchAccesses(1, MaxBatch)},
	}
}

func TestBinaryFrameRoundTrip(t *testing.T) {
	for i, f := range binaryFrames() {
		b, err := AppendBinaryFrame([]byte("prefix"), f)
		if err != nil {
			t.Fatalf("frame %d: encode: %v", i, err)
		}
		if string(b[:6]) != "prefix" {
			t.Fatalf("frame %d: encoder clobbered the buffer's prefix", i)
		}
		b = b[6:]
		var got Frame
		if err := readBinary(b, &got); err != nil {
			t.Fatalf("frame %d: decode: %v", i, err)
		}
		if !got.fromBinary || !sameBatch(&got, f) {
			t.Fatalf("frame %d: round trip changed the frame: %+v", i, got)
		}
		raw, bin, err := NewFrameReader(bytes.NewReader(b)).ReadRaw(nil)
		if err != nil || !bin || !bytes.Equal(raw, b) {
			t.Fatalf("frame %d: ReadRaw returned %q (binary %v, err %v), want the frame's bytes", i, raw, bin, err)
		}
		if j, err := EncodeFrame(f); err != nil || len(b) >= len(j) {
			t.Fatalf("frame %d: binary form %d bytes, JSON %d (err %v)", i, len(b), len(j), err)
		}
	}
	// Only batch frames have a binary form, and only valid ones encode.
	for _, f := range []*Frame{
		{Type: FrameDecision, Seq: 1},
		{Type: FrameBatch},
		{Type: FrameBatch, Accesses: []BatchAccess{{Seq: 5}, {Seq: 7}}},
		{Type: FrameBatch, Results: []BatchDecision{{Seq: 1, Code: "made-up"}}},
	} {
		if _, err := AppendBinaryFrame(nil, f); err == nil {
			t.Errorf("%+v encoded in binary", f)
		}
	}
}

// binaryHeader builds a frame from a marker and a raw payload.
func binaryHeader(marker byte, payload []byte) []byte {
	return append(binary.AppendUvarint([]byte{marker}, uint64(len(payload))), payload...)
}

// forged is a named malformed frame.
type forged struct {
	name string
	b    []byte
}

// forgedFrames are malformed binary frames the decoder must reject; the
// counts in them claim far more storage than the bytes that follow.
func forgedFrames() []forged {
	overflow := bytes.Repeat([]byte{0xff}, 11)
	return []forged{
		{"zero count", binaryHeader(binaryAccesses, []byte{0, 1})},
		{"count over MaxBatch", binaryHeader(binaryAccesses, []byte{MaxBatch + 1, 1})},
		{"count past payload", binaryHeader(binaryAccesses, []byte{MaxBatch, 1, 0, 0, 0, 0, 0, 0})},
		{"huge address list", binaryHeader(binaryResults, []byte{1, 1, 0, 0xff, 0xff, 0xff, 0xff, 0x0f})},
		{"uvarint overflow", binaryHeader(binaryAccesses, append([]byte{1}, overflow...))},
		{"zero first seq", binaryHeader(binaryAccesses, []byte{1, 0, 0, 0, 0, 0, 0, 0})},
		{"unknown flags", binaryHeader(binaryAccesses, []byte{1, 1, 0x80, 0, 0, 0, 0, 0})},
		{"valid without hints", binaryHeader(binaryAccesses, []byte{1, 1, accHintsValid, 0, 0, 0, 0, 0})},
		{"unknown code", binaryHeader(binaryResults, []byte{1, 1, 7 << decCodeShift, 0, 0})},
		{"branch hist > 16b", binaryHeader(binaryAccesses, []byte{1, 1, 0, 0, 0, 0, 0, 0x80, 0x80, 0x04})},
		{"trailing bytes", binaryHeader(binaryResults, []byte{1, 1, 0, 0, 0, 0})},
		{"oversize prefix", binary.AppendUvarint([]byte{binaryResults}, MaxFrameBytes+1)},
		{"prefix overflow", append([]byte{binaryAccesses}, overflow...)},
	}
}

func TestBinaryDecodeRejects(t *testing.T) {
	for _, fc := range forgedFrames() {
		name, b := fc.name, fc.b
		var f Frame
		if err := readBinary(b, &f); err == nil || err == io.EOF {
			t.Errorf("%s: decoded (err %v)", name, err)
		}
	}
	// Truncation at every byte of every valid frame: never accepted, and
	// a stream cut inside a frame is ErrUnexpectedEOF, not a clean EOF.
	for i, fr := range binaryFrames() {
		b, err := AppendBinaryFrame(nil, fr)
		if err != nil {
			t.Fatal(err)
		}
		for k := 1; k < len(b); k++ {
			var f Frame
			if err := readBinary(b[:k], &f); err != io.ErrUnexpectedEOF {
				t.Fatalf("frame %d cut at %d of %d bytes: err %v, want ErrUnexpectedEOF", i, k, len(b), err)
			}
		}
	}
}

// TestBinaryDecodeForgedCountsNoAlloc: counts are checked against the
// bytes left before any storage grows, so forged frames decoding into a
// warm frame allocate nothing.
func TestBinaryDecodeForgedCountsNoAlloc(t *testing.T) {
	var f Frame
	for _, fr := range binaryFrames() {
		b, _ := AppendBinaryFrame(nil, fr)
		if err := readBinary(b, &f); err != nil { // warm both sides' storage
			t.Fatal(err)
		}
	}
	for _, fc := range forgedFrames() {
		name, b := fc.name, fc.b
		if len(b) == 0 || b[0] != binaryAccesses && b[0] != binaryResults {
			continue
		}
		d := binDecoder{b: b[1:]}
		d.uvarint() // skip the length prefix
		payload := b[1+d.i:]
		if d.bad || len(payload) > MaxFrameBytes {
			continue // the reader rejects these before decoding
		}
		if n := testing.AllocsPerRun(50, func() {
			if err := decodeBinary(b[0], payload, &f); err == nil {
				t.Fatalf("%s: accepted", name)
			}
		}); n != 0 {
			t.Fatalf("%s: rejecting allocates %.1f/op, want 0", name, n)
		}
	}
}

// FuzzDecodeBatchBinary is the binary decoder's fuzz target: arbitrary
// bytes must never panic the reader, the storage a decode grows must be
// paid for by the input's own bytes, and any frame it accepts must
// survive decode → encode → decode unchanged. FuzzDecodeFrame covers the
// JSON path.
func FuzzDecodeBatchBinary(f *testing.F) {
	for _, fr := range binaryFrames()[:2] {
		b, err := AppendBinaryFrame(nil, fr)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
		for k := 1; k < len(b); k++ {
			f.Add(b[:k]) // truncation at every byte
		}
	}
	for _, fc := range forgedFrames() {
		f.Add(fc.b)
	}
	for _, n := range []int{17, MaxBatch} { // above a granted 16; the protocol limit
		b, _ := AppendBinaryFrame(nil, &Frame{Type: FrameBatch, Accesses: batchAccesses(1, n)})
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var got Frame
		err := readBinary(data, &got)
		if len(got.Accesses) > MaxBatch || len(got.Results) > MaxBatch {
			t.Fatalf("decoder grew %d accesses / %d results past MaxBatch", len(got.Accesses), len(got.Results))
		}
		addrs := 0
		for _, r := range got.Results {
			addrs += len(r.Prefetch) + len(r.Shadow)
		}
		if addrs > len(data) {
			t.Fatalf("decoder grew %d addresses from %d input bytes", addrs, len(data))
		}
		if err != nil || !got.fromBinary {
			return
		}
		b, err := AppendBinaryFrame(nil, &got)
		if err != nil {
			t.Fatalf("accepted frame failed to encode: %v (input %x)", err, data)
		}
		var again Frame
		if err := readBinary(b, &again); err != nil {
			t.Fatalf("re-encoded frame failed to decode: %v (input %x)", err, data)
		}
		if !sameBatch(&got, &again) {
			t.Fatalf("decode→encode→decode changed the frame (input %x)", data)
		}
	})
}

func (tc *testConn) helloBinary(session string, ask int) *Frame {
	tc.t.Helper()
	tc.send(&Frame{Type: FrameHello, Version: ProtocolVersion, Session: session, Batch: ask, Binary: true})
	w := tc.recv()
	if w.Type != FrameWelcome || !w.Binary {
		tc.t.Fatalf("want a welcome granting binary, got %+v", w)
	}
	return w
}

// binaryBatch sends accesses [first, first+n) as a binary batch frame.
func (tc *testConn) binaryBatch(first uint64, n int) *Frame {
	tc.t.Helper()
	b, err := AppendBinaryFrame(nil, &Frame{Type: FrameBatch, Accesses: batchAccesses(first, n)})
	if err != nil {
		tc.t.Fatal(err)
	}
	if _, err := tc.c.Write(b); err != nil {
		tc.t.Fatal(err)
	}
	return tc.recv()
}

// TestServerBinaryMatchesJSONBatches: a hello without the binary ask
// still gets JSON batch frames answered in JSON, and its decisions equal
// those of a binary session fed the same stream on the same daemon.
func TestServerBinaryMatchesJSONBatches(t *testing.T) {
	s := startServer(t, Config{})
	js := dialServer(t, s)
	if w := js.helloBatch("json", 16); w.Binary {
		t.Fatal("binary granted without being asked")
	}
	bn := dialServer(t, s)
	bn.helloBinary("bin", 16)

	seq := uint64(1)
	for _, k := range []int{16, 1, 7, 16, 3, 16, 16, 11} {
		jr, br := js.batch(seq, k), bn.binaryBatch(seq, k)
		if jr.Type != FrameBatch || jr.fromBinary || len(jr.Results) != k {
			t.Fatalf("JSON session at %d: %+v", seq, jr)
		}
		if br.Type != FrameBatch || !br.fromBinary {
			t.Fatalf("binary session at %d: %+v", seq, br)
		}
		if !sameBatch(jr, br) {
			t.Fatalf("batch at %d: JSON %+v, binary %+v", seq, jr.Results, br.Results)
		}
		seq += uint64(k)
	}
}

// TestServerBinaryBeforeGrant: a binary batch frame on a connection that
// did not negotiate the binary encoding gets a protocol error and the
// connection survives — with or without a batch grant.
func TestServerBinaryBeforeGrant(t *testing.T) {
	s := startServer(t, Config{})

	tc := dialServer(t, s)
	tc.hello("plain")
	if got := tc.binaryBatch(1, 2); got.Type != FrameError || got.Code != CodeProtocol {
		t.Fatalf("binary batch without any grant: want protocol error, got %+v", got)
	}
	if got := tc.access(1, accessAddr(1)); got.Type != FrameDecision || got.Seq != 1 {
		t.Fatalf("connection unusable after the rejection: %+v", got)
	}

	tc2 := dialServer(t, s)
	tc2.helloBatch("batched", 16)
	if got := tc2.binaryBatch(1, 4); got.Type != FrameError || got.Code != CodeProtocol {
		t.Fatalf("binary batch with only a batch grant: want protocol error, got %+v", got)
	}
	if got := tc2.batch(1, 4); got.Type != FrameBatch || got.fromBinary || len(got.Results) != 4 {
		t.Fatalf("JSON batch after the rejection: %+v", got)
	}
}

// discardConn swallows writes: the connWriter of a session driven
// directly by a test.
type discardConn struct{ net.Conn }

func (discardConn) Write(b []byte) (int, error)      { return len(b), nil }
func (discardConn) SetWriteDeadline(time.Time) error { return nil }

// TestProcessBatchAllocs pins the per-batch allocation budget of a warm
// session at batch 16: the fresh span's entries and its one address
// backing — the reply frame, its results and the binary encode reuse
// session and connection storage.
func TestProcessBatchAllocs(t *testing.T) {
	srv, err := NewServer(Config{Reg: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	l, err := NewLearner(srv.cfg.Learner)
	if err != nil {
		t.Fatal(err)
	}
	s := newSession("allocs", l, srv)
	defer s.close()
	w := newConnWriter(discardConn{}, time.Second, srv.cfg.WriteCoalesce, time.Hour, nil)
	w.binary = true
	req := &Frame{Type: FrameBatch, Accesses: batchAccesses(1, 16)}
	next := uint64(1)
	run := func() {
		for j := range req.Accesses {
			seq := next + uint64(j)
			req.Accesses[j].Seq, req.Accesses[j].Addr = seq, accessAddr(seq)
		}
		next += uint64(len(req.Accesses))
		s.processBatch(inboxItem{fr: req, conn: w})
	}
	for i := 0; i < 500; i++ {
		run()
	}
	if n := testing.AllocsPerRun(200, run); n > 2 {
		t.Fatalf("warm processBatch allocates %.1f per fresh batch, want at most 2", n)
	}
	if s.lastSeq != next-1 || s.decisions.Load() != next-1 {
		t.Fatalf("session applied %d of %d accesses", s.lastSeq, next-1)
	}
	// The replay ring holds the decisions the reply carried.
	if e, ok := s.replay.get(next - 1); !ok || e.Seq != next-1 {
		t.Fatalf("last fresh decision not cached: %+v %v", e, ok)
	}
}

// BenchmarkBinaryBatchCodec times one batch-16 exchange's codec work:
// encode and decode of the request and of its reply, as client and
// server do it, into reused storage. ns/access is per decision.
func BenchmarkBinaryBatchCodec(b *testing.B) {
	const k = 16
	req := &Frame{Type: FrameBatch, Accesses: batchAccesses(1, k)}
	resp := &Frame{Type: FrameBatch}
	for _, a := range req.Accesses {
		resp.Results = append(resp.Results, BatchDecision{Seq: a.Seq,
			Prefetch: []uint64{a.Addr + 64}, Shadow: []uint64{a.Addr + 128, a.Addr - 64}})
	}
	var buf []byte
	var dec Frame
	r := bytes.NewReader(nil)
	fr := NewFrameReader(r)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, f := range []*Frame{req, resp} {
			var err error
			if buf, err = AppendBinaryFrame(buf[:0], f); err != nil {
				b.Fatal(err)
			}
			r.Reset(buf)
			if err := fr.ReadInto(&dec); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*k), "ns/access")
}
