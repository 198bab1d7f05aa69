package link_test

import (
	"bytes"
	"context"
	"errors"
	"io"
	"math/rand"
	"testing"

	"spinal/channel"
	"spinal/link"
)

func TestConnRoundTrip(t *testing.T) {
	c, err := link.Dial(testParams(), channel.NewAWGN(12, 10))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	rng := rand.New(rand.NewSource(7))
	msgs := [][]byte{make([]byte, 100), make([]byte, 300), []byte("short")}
	rng.Read(msgs[0])
	rng.Read(msgs[1])
	var want bytes.Buffer
	for _, m := range msgs {
		n, err := c.Write(m)
		if err != nil {
			t.Fatal(err)
		}
		if n != len(m) {
			t.Fatalf("short write %d/%d", n, len(m))
		}
		want.Write(m)
	}

	var got bytes.Buffer
	if _, err := io.Copy(&got, c); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatal("conn stream corrupted")
	}
	st := c.Stats()
	if st.SymbolsSent <= 0 || st.Rate <= 0 {
		t.Fatalf("implausible conn stats %+v", st)
	}
}

// TestConnStatsSumFlowStats: a Conn's Stats is the sum of its flows'
// Stats on every counter — receiver dedup and the fault counters
// included — so a faulted Conn does not report silence. One Write on a
// Conn and one Send on a Session with the same options and seeds cross
// identical frames, so their Stats must match field for field.
func TestConnStatsSumFlowStats(t *testing.T) {
	p := testParams()
	p.B = 16
	opts := func() []link.Option {
		return []link.Option{
			link.WithFaults(link.FaultConfig{FrameDup: 0.5, FrameReorder: 0.3, ReorderDepth: 2}),
			link.WithSeed(3),
		}
	}
	msg := make([]byte, 400)
	rand.New(rand.NewSource(5)).Read(msg)

	c, err := link.Dial(p, channel.NewAWGN(10, 9), opts()...)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Write(msg); err != nil {
		t.Fatal(err)
	}
	s, err := link.NewSession(p, append(opts(), link.WithChannel(channel.NewAWGN(10, 9)))...)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Send(msg); err != nil {
		t.Fatal(err)
	}
	res, err := s.Drain(context.Background())
	if err != nil || len(res) != 1 || res[0].Err != nil {
		t.Fatalf("session drain: %v %+v", err, res)
	}
	want := res[0].Stats
	if want.SymbolsDeduped == 0 || want.Faults.FramesDuplicated == 0 {
		t.Fatalf("fault schedule injected nothing to count: %+v", want)
	}
	if got := c.Stats(); got != want {
		t.Fatalf("conn stats differ from its flow's:\nconn %#v\nflow %#v", got, want)
	}
}

func TestConnWriteLeavesCallerBuffer(t *testing.T) {
	c, err := link.Dial(testParams(), channel.NewAWGN(15, 11))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	buf := []byte("reused immediately after Write")
	if _, err := c.Write(buf); err != nil {
		t.Fatal(err)
	}
	for i := range buf {
		buf[i] = 0 // io.Writer allows the caller to reuse p right away
	}
	got, err := io.ReadAll(c)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "reused immediately after Write" {
		t.Fatalf("delivered bytes alias the caller's buffer: %q", got)
	}
}

func TestConnBudgetExhaustion(t *testing.T) {
	// 2 rounds at 0 dB cannot carry 2 KiB; the Write must fail with the
	// flow's error and deliver nothing.
	c, err := link.Dial(testParams(), channel.NewAWGN(0, 12), link.WithMaxRounds(2))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	data := make([]byte, 2048)
	n, err := c.Write(data)
	if n != 0 || !errors.Is(err, link.ErrFlowBudget) {
		t.Fatalf("Write = %d, %v; want 0, ErrFlowBudget", n, err)
	}
	if b, _ := io.ReadAll(c); len(b) != 0 {
		t.Fatalf("failed write delivered %d bytes", len(b))
	}
}

func TestConnReadSemantics(t *testing.T) {
	c, err := link.Dial(testParams(), channel.NewAWGN(15, 13))
	if err != nil {
		t.Fatal(err)
	}
	// Empty conn: EOF, like an empty bytes.Buffer.
	if n, err := c.Read(make([]byte, 8)); n != 0 || err != io.EOF {
		t.Fatalf("empty Read = %d, %v", n, err)
	}
	if _, err := c.Write([]byte("abcdef")); err != nil {
		t.Fatal(err)
	}
	p := make([]byte, 4)
	if n, _ := c.Read(p); n != 4 || string(p[:4]) != "abcd" {
		t.Fatalf("partial read %q", p[:n])
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	// Buffered bytes stay readable after Close; writes do not.
	if n, _ := c.Read(p); n != 2 || string(p[:2]) != "ef" {
		t.Fatalf("post-close read lost data")
	}
	if _, err := c.Write([]byte("x")); !errors.Is(err, link.ErrClosed) {
		t.Fatalf("Write on closed conn: %v", err)
	}
}
