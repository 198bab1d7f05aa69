package link

import (
	"bytes"
	"math/rand"
	"testing"

	"spinal/internal/channel"
)

// engineRun drives a one-flow engine to completion and returns the result.
func engineRun(t *testing.T, cfg EngineConfig, fc FlowConfig, data []byte) FlowResult {
	t.Helper()
	cfg.Params = linkParams()
	if cfg.FrameSymbols == 0 {
		cfg.FrameSymbols = 1 << 30
	}
	e := NewEngine(cfg)
	e.AddFlow(data, fc)
	res := e.Drain(0)
	if len(res) != 1 {
		t.Fatalf("want 1 result, got %d", len(res))
	}
	return res[0]
}

// TestHalfDuplexChargesAckAirtime: with HalfDuplex set, every mode of
// feedback charges reverse airtime into Stats.AckSymbols and the rate
// divides by forward plus ack symbols; without it, acks stay free.
func TestHalfDuplexChargesAckAirtime(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	data := make([]byte, 300)
	rng.Read(data)

	free := engineRun(t, EngineConfig{}, FlowConfig{Channel: channel.NewAWGN(12, 5)}, data)
	if free.Err != nil || free.Stats.AckSymbols != 0 {
		t.Fatalf("free-ack run: err=%v ackSymbols=%d", free.Err, free.Stats.AckSymbols)
	}

	hd := engineRun(t, EngineConfig{HalfDuplex: &HalfDuplexConfig{}},
		FlowConfig{Channel: channel.NewAWGN(12, 5)}, data)
	if hd.Err != nil {
		t.Fatal(hd.Err)
	}
	if hd.Stats.AckSymbols <= 0 {
		t.Fatal("half-duplex run charged no ack airtime")
	}
	if !bytes.Equal(hd.Datagram, data) {
		t.Fatal("datagram corrupted")
	}
	// Identical seeds mean identical forward behaviour: accounting is
	// observational, so only the rate's denominator may differ.
	if hd.Stats.SymbolsSent != free.Stats.SymbolsSent {
		t.Fatalf("half-duplex accounting changed the forward path: %d vs %d symbols",
			hd.Stats.SymbolsSent, free.Stats.SymbolsSent)
	}
	wantRate := float64(len(data)*8) / float64(hd.Stats.SymbolsSent+hd.Stats.AckSymbols)
	if hd.Stats.Rate != wantRate {
		t.Fatalf("rate %.4f does not include ack airtime (want %.4f)", hd.Stats.Rate, wantRate)
	}
	if hd.Stats.Rate >= free.Stats.Rate {
		t.Fatal("charged rate not below the free-ack rate")
	}
}

// TestHalfDuplexChargesLostAcks: airtime is spent when the ack is
// transmitted, not when it is delivered — a fully lossy reverse channel
// still accumulates AckSymbols.
func TestHalfDuplexChargesLostAcks(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	data := make([]byte, 60)
	rng.Read(data)
	r := engineRun(t,
		EngineConfig{
			HalfDuplex: &HalfDuplexConfig{},
			Feedback:   &FeedbackConfig{Loss: 1}, // every ack dies in transit
			MaxRounds:  24,
		},
		FlowConfig{Channel: channel.NewAWGN(15, 7)}, data)
	if r.Err == nil {
		t.Fatal("flow delivered despite a dead reverse channel")
	}
	if r.Stats.AcksSent == 0 || r.Stats.AcksLost != r.Stats.AcksSent {
		t.Fatalf("expected all acks lost: sent=%d lost=%d", r.Stats.AcksSent, r.Stats.AcksLost)
	}
	if r.Stats.AckSymbols <= 0 {
		t.Fatal("lost acks were not charged")
	}
}

// TestHalfDuplexAirtimeDenser: a denser reverse modulation charges fewer
// symbols for the same acks.
func TestHalfDuplexAirtimeDenser(t *testing.T) {
	h2 := &HalfDuplexConfig{AckBitsPerSymbol: 2}
	h8 := &HalfDuplexConfig{AckBitsPerSymbol: 8}
	if a, b := h2.airtime(10), h8.airtime(10); a != 40 || b != 10 {
		t.Fatalf("airtime(10 bytes) = %d @2b/sym, %d @8b/sym; want 40, 10", a, b)
	}
}

// recordingObserver collects feedback events.
type recordingObserver struct {
	events []FeedbackEvent
}

func (o *recordingObserver) ObserveFeedback(ev FeedbackEvent) { o.events = append(o.events, ev) }

// TestFeedbackObserverEvents: under a FeedbackConfig the observer sees
// every ack emission and every delivery, in order, with coherent counts.
func TestFeedbackObserverEvents(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	data := make([]byte, 200)
	rng.Read(data)
	ob := &recordingObserver{}
	r := engineRun(t,
		EngineConfig{Feedback: &FeedbackConfig{DelayRounds: 2}, Observer: ob, MaxRounds: 512},
		FlowConfig{Channel: channel.NewAWGN(12, 13)}, data)
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	sent, delivered := 0, 0
	for _, ev := range ob.events {
		if ev.Blocks != r.Stats.Blocks {
			t.Fatalf("event block count %d, flow has %d", ev.Blocks, r.Stats.Blocks)
		}
		if ev.Decoded < 0 || ev.Decoded > ev.Blocks {
			t.Fatalf("incoherent decoded count %d/%d", ev.Decoded, ev.Blocks)
		}
		switch ev.Kind {
		case AckSent:
			sent++
		case AckDelivered:
			delivered++
		default:
			t.Fatalf("unknown event kind %v", ev.Kind)
		}
	}
	if sent != r.Stats.AcksSent {
		t.Fatalf("observer saw %d sends, stats count %d", sent, r.Stats.AcksSent)
	}
	if delivered == 0 || delivered > sent {
		t.Fatalf("incoherent delivery count %d (sent %d)", delivered, sent)
	}

}
