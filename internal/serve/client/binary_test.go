package client

import (
	"fmt"
	"io"
	"net"
	"testing"

	"semloc/internal/core"
	"semloc/internal/serve"
)

// checkBatch compares DecideBatch results against the reference stream.
func checkBatch(t *testing.T, res []serve.BatchDecision, first uint64, want []*serve.Frame) {
	t.Helper()
	for j, d := range res {
		i := first + uint64(j)
		if d.Seq != i || d.Degraded || d.Replayed || d.Code != "" {
			t.Fatalf("seq %d: result %+v in lockstep", i, d)
		}
		if !serve.SameDecision(&serve.Frame{Prefetch: d.Prefetch, Shadow: d.Shadow}, want[i]) {
			t.Fatalf("seq %d: daemon %v/%v, reference %v/%v", i, d.Prefetch, d.Shadow, want[i].Prefetch, want[i].Shadow)
		}
	}
}

// jsonOnlyDaemon is a hand-rolled daemon that grants batching but not the
// binary encoding, as a daemon predating it does: it answers JSON batch
// frames from its own learner and fails if a binary frame ever arrives.
func jsonOnlyDaemon(ln net.Listener) error {
	conn, err := ln.Accept()
	if err != nil {
		return err
	}
	defer conn.Close()
	r := serve.NewFrameReader(conn)
	hello, err := r.Read()
	if err != nil {
		return err
	}
	if hello.Type != serve.FrameHello || hello.Batch == 0 || !hello.Binary {
		return fmt.Errorf("hello %+v: want a batch and binary ask", hello)
	}
	send := func(f *serve.Frame) error {
		b, err := serve.EncodeFrame(f)
		if err == nil {
			_, err = conn.Write(b)
		}
		return err
	}
	if err := send(&serve.Frame{Type: serve.FrameWelcome, Session: hello.Session, Batch: hello.Batch}); err != nil {
		return err
	}
	l, err := serve.NewLearner(core.Config{})
	if err != nil {
		return err
	}
	for {
		raw, bin, err := r.ReadRaw(nil)
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		if bin {
			return fmt.Errorf("binary frame sent without the grant")
		}
		fr, err := serve.DecodeFrame(raw[:len(raw)-1])
		if err != nil {
			return err
		}
		switch fr.Type {
		case serve.FrameBye:
			return nil
		case serve.FrameBatch:
			out := &serve.Frame{Type: serve.FrameBatch}
			for i := range fr.Accesses {
				pf, sh := l.DecideAccess(&fr.Accesses[i])
				out.Results = append(out.Results, serve.BatchDecision{Seq: fr.Accesses[i].Seq,
					Prefetch: append([]uint64(nil), pf...), Shadow: append([]uint64(nil), sh...)})
			}
			if err := send(out); err != nil {
				return err
			}
		default:
			return fmt.Errorf("unexpected %s frame", fr.Type)
		}
	}
}

// TestClientBatchJSONWithoutBinaryGrant: against a welcome that grants a
// batch size but not the binary encoding, the client keeps its batch
// frames on JSON lines and gets the same decisions.
func TestClientBatchJSONWithoutBinaryGrant(t *testing.T) {
	const n = 40
	want := referenceDecisions(t, n)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	done := make(chan error, 1)
	go func() { done <- jsonOnlyDaemon(ln) }()

	c, err := Dial(Config{Addr: FixedAddr(ln.Addr().String()), Session: "old", MaxBatch: 8})
	if err != nil {
		t.Fatal(err)
	}
	if c.Batch() != 8 || c.binary {
		t.Fatalf("granted batch %d binary %v, want 8 without binary", c.Batch(), c.binary)
	}
	res, err := c.DecideBatch(batchAccs(1, n), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != n {
		t.Fatalf("%d results, want %d", len(res), n)
	}
	checkBatch(t, res, 1, want)
	c.Close()
	if err := <-done; err != nil {
		t.Fatalf("daemon: %v", err)
	}
}

// TestClientStatsExplainBetweenBinaryBatches: stats and explain frames
// (JSON) interleave with binary batch frames on one connection, and
// each sees the session exactly as far as the batches have taken it.
func TestClientStatsExplainBetweenBinaryBatches(t *testing.T) {
	const k, rounds = 16, 5
	want := referenceDecisions(t, k*rounds)
	s := startDaemon(t, serve.Config{})
	defer s.Close()
	p := startProxy(t, s.Addr().String(), 0, 0, 0) // counts binary frames
	c, err := Dial(Config{Addr: FixedAddr(p.addr()), Session: "mixed", MaxBatch: k})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if !c.binary {
		t.Fatal("daemon did not grant the binary encoding")
	}
	for r := 0; r < rounds; r++ {
		first := uint64(r*k + 1)
		res, err := c.DecideBatch(batchAccs(first, k), nil)
		if err != nil {
			t.Fatalf("batch at %d: %v", first, err)
		}
		checkBatch(t, res, first, want)
		applied := first + k - 1
		st, err := c.Stats()
		if err != nil {
			t.Fatal(err)
		}
		if st.Decisions != applied || st.LastSeq != applied {
			t.Fatalf("stats after seq %d: %+v", applied, st)
		}
		rep, err := c.Explain(4)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Session != "mixed" || rep.Health.Accesses != applied {
			t.Fatalf("explain after seq %d: session %q, %d accesses", applied, rep.Session, rep.Health.Accesses)
		}
	}
	if c.Reconnects != 0 || c.Retries != 0 {
		t.Fatalf("connection did not survive: %d reconnects, %d retries", c.Reconnects, c.Retries)
	}
	// A request and a reply per batch, in both directions.
	if got := p.binary.Load(); got != 2*rounds {
		t.Fatalf("proxy forwarded %d binary frames, want %d", got, 2*rounds)
	}
}
