package link_test

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"time"

	"spinal"
	"spinal/baseline"
	"spinal/channel"
	"spinal/link"
)

func testParams() spinal.Params {
	p := spinal.DefaultParams()
	p.B = 32
	return p
}

func TestSessionRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	data := make([]byte, 400)
	rng.Read(data)

	s, err := link.NewSession(testParams(),
		link.WithChannel(channel.NewAWGN(12, 2)),
		link.WithRatePolicy(link.CapacityRate{SNREstimateDB: 12}),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	id, err := s.Send(data)
	if err != nil {
		t.Fatal(err)
	}
	results, err := s.Drain(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 || results[0].ID != id {
		t.Fatalf("unexpected results %+v", results)
	}
	r := results[0]
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	if !bytes.Equal(r.Datagram, data) {
		t.Fatal("datagram corrupted")
	}
	if r.Stats.Rate <= 0 || r.Stats.SymbolsSent <= 0 {
		t.Fatalf("implausible stats %+v", r.Stats)
	}
}

func TestSessionPerFlowOverrides(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	s, err := link.NewSession(testParams(),
		link.WithChannel(channel.NewAWGN(8, 3)), // session default: mediocre channel
	)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	a := make([]byte, 120)
	b := make([]byte, 120)
	rng.Read(a)
	rng.Read(b)
	idA, err := s.Send(a)
	if err != nil {
		t.Fatal(err)
	}
	idB, err := s.Send(b,
		link.WithChannel(channel.NewAWGN(25, 4)), // override: excellent channel
		link.WithRatePolicy(link.CapacityRate{SNREstimateDB: 25}))
	if err != nil {
		t.Fatal(err)
	}
	results, err := s.Drain(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var symA, symB int
	for _, r := range results {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
		switch r.ID {
		case idA:
			symA = r.Stats.SymbolsSent
		case idB:
			symB = r.Stats.SymbolsSent
		}
	}
	if symB >= symA {
		t.Fatalf("25 dB flow spent %d symbols, 8 dB flow %d — override had no effect", symB, symA)
	}
}

func TestSessionRejectsSessionScopedOptionsAtSend(t *testing.T) {
	s, err := link.NewSession(testParams())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for _, opt := range []link.Option{
		link.WithFeedback(link.FeedbackConfig{}),
		link.WithHalfDuplex(0),
		link.WithCodecPool(2),
		link.WithMaxBlockBits(256),
		link.WithFrameSymbols(1024),
		link.WithFaults(link.FaultConfig{}),
		link.WithSeed(7),
		link.WithFeedbackObserver(nil),
	} {
		if _, err := s.Send([]byte("x"), opt); err == nil {
			t.Fatal("Send accepted a session-scoped option")
		} else if !strings.Contains(err.Error(), "session-scoped") {
			t.Fatalf("unhelpful error %q", err)
		}
	}
	if s.Active() != 0 {
		t.Fatal("rejected sends leaked flows")
	}
}

func TestSessionContextCancellation(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	data := make([]byte, 5000)
	rng.Read(data)
	s, err := link.NewSession(testParams(), link.WithChannel(channel.NewAWGN(6, 5)))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Send(data); err != nil {
		t.Fatal(err)
	}

	// A canceled context stops Step before the round runs...
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.Step(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("Step under canceled context: %v", err)
	}
	// ...and Drain returns the cancellation with the flow still active.
	if _, err := s.Drain(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("Drain under canceled context: %v", err)
	}
	if s.Active() != 1 {
		t.Fatalf("cancellation resolved flows: %d active", s.Active())
	}
	// The session stays usable: a fresh context finishes the transfer.
	results, err := s.Drain(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 || results[0].Err != nil || !bytes.Equal(results[0].Datagram, data) {
		t.Fatalf("post-cancel drain failed: %+v", results)
	}
}

func TestSessionSetChannel(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	data := make([]byte, 600)
	rng.Read(data)
	s, err := link.NewSession(testParams(), link.WithChannel(channel.NewAWGN(3, 6)))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	id, err := s.Send(data, link.WithMaxRounds(200))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		if _, err := s.Step(ctx); err != nil {
			t.Fatal(err)
		}
	}
	// Mid-flight handoff to a far better medium.
	if !s.SetChannel(id, channel.NewAWGN(25, 7)) {
		t.Fatal("SetChannel lost the active flow")
	}
	results, err := s.Drain(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Err != nil || !bytes.Equal(results[0].Datagram, data) {
		t.Fatalf("handoff transfer failed: %v", results[0].Err)
	}
	if s.SetChannel(id, nil) {
		t.Fatal("SetChannel found a resolved flow")
	}
}

func TestSessionClosed(t *testing.T) {
	s, err := link.NewSession(testParams())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); !errors.Is(err, link.ErrClosed) {
		t.Fatalf("second Close = %v, want ErrClosed", err)
	}
	if _, err := s.Send([]byte("x")); !errors.Is(err, link.ErrClosed) {
		t.Fatalf("Send on closed session: %v", err)
	}
	if _, err := s.Step(context.Background()); !errors.Is(err, link.ErrClosed) {
		t.Fatalf("Step on closed session: %v", err)
	}
	if _, err := s.Drain(context.Background()); !errors.Is(err, link.ErrClosed) {
		t.Fatalf("Drain on closed session: %v", err)
	}
}

// customRate is a user-provided RatePolicy implemented outside the
// module's internals — the extension-interface contract in action.
type customRate struct{ calls int }

func (c *customRate) SubpassBudget(blockBits, subpassSymbols, symbolsSent int) int {
	c.calls++
	if symbolsSent == 0 {
		return 4 // opening burst
	}
	return 1
}

func TestSessionCustomRatePolicy(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	data := make([]byte, 200)
	rng.Read(data)
	cr := &customRate{}
	s, err := link.NewSession(testParams(), link.WithChannel(channel.NewAWGN(12, 8)))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Send(data, link.WithRatePolicy(cr)); err != nil {
		t.Fatal(err)
	}
	results, err := s.Drain(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Err != nil || !bytes.Equal(results[0].Datagram, data) {
		t.Fatal("custom-policy transfer failed")
	}
	if cr.calls == 0 {
		t.Fatal("custom policy never consulted")
	}
}

func TestSessionRatePolicyFactory(t *testing.T) {
	made := 0
	s, err := link.NewSession(testParams(),
		link.WithChannel(channel.NewAWGN(15, 9)),
		link.WithRatePolicyFunc(func() link.RatePolicy {
			made++
			return link.NewTrackingRate(15)
		}),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rng := rand.New(rand.NewSource(6))
	for i := 0; i < 3; i++ {
		data := make([]byte, 80)
		rng.Read(data)
		if _, err := s.Send(data); err != nil {
			t.Fatal(err)
		}
	}
	if made != 3 {
		t.Fatalf("factory built %d policies for 3 flows", made)
	}
	results, err := s.Drain(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
	}
}

// TestMetricsCountsDecodersOfEveryCode: a session's Metrics counts the
// decoders of whatever code it runs. A Raptor session and a spinal
// session each deliver a byte-exact payload and count the decoder their
// one worker built, and a second flow on a warmed session builds none.
// The snapshot stays readable after Close.
func TestMetricsCountsDecodersOfEveryCode(t *testing.T) {
	payload := []byte("one datagram that every code must carry byte for byte")
	for _, tc := range []struct {
		name string
		opts []link.Option
	}{{"spinal", nil}, {"raptor", []link.Option{link.WithCode(baseline.Raptor())}}} {
		s, err := link.NewSession(testParams(), append(tc.opts, link.WithCodecPool(1),
			link.WithChannel(channel.NewAWGN(12, 1)))...)
		if err != nil {
			t.Fatal(err)
		}
		send := func() int64 {
			t.Helper()
			if _, err := s.Send(payload); err != nil {
				t.Fatal(err)
			}
			res, err := s.Drain(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if len(res) != 1 || res[0].Err != nil || !bytes.Equal(res[0].Datagram, payload) {
				t.Fatalf("flow did not deliver the payload: %+v", res)
			}
			return s.Metrics().DecodersBuilt
		}
		warm := send()
		if warm != 1 {
			t.Fatalf("%s: one worker, one block size built %d decoders, want 1", tc.name, warm)
		}
		if built := send(); built != warm {
			t.Fatalf("%s: a second flow on the warmed session built decoders: %d -> %d", tc.name, warm, built)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		if m := s.Metrics(); m.Delivered != 2 || m.DecodersBuilt != warm {
			t.Fatalf("%s: snapshot after Close: %+v", tc.name, m)
		}
	}
}

// TestSessionLeavesNoGoroutines: a session's codec work runs on the
// goroutine that steps it plus helpers that live for one fan-out, so a
// four-way session that sends and drains, and is never closed, leaves
// the goroutine count where it started.
func TestSessionLeavesNoGoroutines(t *testing.T) {
	start := runtime.NumGoroutine()
	s, err := link.NewSession(testParams(), link.WithCodecPool(4),
		link.WithChannel(channel.NewAWGN(12, 3)))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	for range 8 {
		data := make([]byte, 200)
		rng.Read(data)
		if _, err := s.Send(data); err != nil {
			t.Fatal(err)
		}
	}
	res, err := s.Drain(context.Background())
	if err != nil || len(res) != 8 {
		t.Fatalf("drained %d flows: %v", len(res), err)
	}
	// A helper that has signalled the fan-out may not have exited yet.
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(2 * time.Second); n > start && time.Now().Before(deadline); n = runtime.NumGoroutine() {
		time.Sleep(time.Millisecond)
	}
	if n > start {
		t.Errorf("%d goroutines after Send and Drain, %d before", n, start)
	}
	runtime.KeepAlive(s)
}
