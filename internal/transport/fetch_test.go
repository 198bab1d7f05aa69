package transport

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"testing"

	"spinal"
	"spinal/channel"
	"spinal/link"
)

func fetchParams() spinal.Params {
	return spinal.Params{K: 4, B: 16, D: 1, C: 6, Tail: 2, Ways: 8}
}

func TestRTTEstimator(t *testing.T) {
	e := newRTTEstimator(48, 16, 512)
	if e.rto != 48 {
		t.Fatalf("initial rto = %d, want 48", e.rto)
	}
	e.observe(20)
	if e.srtt != 20 || e.rttvar != 10 {
		t.Fatalf("first sample: srtt=%v rttvar=%v, want 20/10", e.srtt, e.rttvar)
	}
	if e.rto != 60 { // 20 + 4·10
		t.Fatalf("rto after first sample = %d, want 60", e.rto)
	}
	for i := 0; i < 100; i++ {
		e.observe(20)
	}
	// Constant samples: variance decays, RTO converges down to the floor
	// region srtt + 4·rttvar → 20, clamped at minRTO 16... so ≥ minRTO.
	if e.srtt < 19.5 || e.srtt > 20.5 {
		t.Fatalf("srtt did not converge: %v", e.srtt)
	}
	if e.rto < 16 || e.rto > 24 {
		t.Fatalf("rto did not converge: %d", e.rto)
	}
	e2 := newRTTEstimator(48, 16, 512)
	e2.observe(1000)
	if e2.rto != 512 {
		t.Fatalf("rto not clamped: %d", e2.rto)
	}
}

func TestFetchPipelineDelivers(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	payload := make([]byte, 8<<10)
	rng.Read(payload)
	res, err := Fetch(context.Background(), payload, Config{
		Params: fetchParams(),
		Options: []link.Option{
			link.WithChannel(channel.NewAWGN(12, 21)),
			link.WithRatePolicy(link.CapacityRate{SNREstimateDB: 12}),
		},
		SegmentBytes: 512,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res.Payload, payload) {
		t.Fatal("payload corrupted")
	}
	if res.Segments != 16 {
		t.Fatalf("segments = %d, want 16", res.Segments)
	}
	if res.SRTT <= 0 || res.RTO <= 0 {
		t.Fatalf("no RTT estimate: srtt=%v rto=%d", res.SRTT, res.RTO)
	}
	if res.CwndMax != 2+16 {
		t.Fatalf("window peak = %v, want InitWindow+segments = 18", res.CwndMax)
	}
	if res.Goodput <= 0 {
		t.Fatal("no goodput recorded")
	}
	t.Logf("steps=%d srtt=%.1f rto=%d cwndMax=%.1f goodput=%.3f",
		res.Steps, res.SRTT, res.RTO, res.CwndMax, res.Goodput)
}

// TestFetchSharedSession runs a fetch over a caller-owned session that
// also carries an unrelated flow: the foreign flow's result surfaces in
// Result.Foreign, and the session stays open after the fetcher closes.
func TestFetchSharedSession(t *testing.T) {
	s, err := link.NewSession(fetchParams(),
		link.WithChannel(channel.NewAWGN(12, 51)),
		link.WithRatePolicy(link.CapacityRate{SNREstimateDB: 12}))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	foreign := []byte("a bystander datagram sharing the link")
	fid, err := s.Send(append([]byte(nil), foreign...))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	payload := make([]byte, 2<<10)
	rng.Read(payload)
	f, err := NewFetcher(Config{Session: s, SegmentBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	res, err := f.Fetch(context.Background(), payload)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res.Payload, payload) {
		t.Fatal("payload corrupted")
	}
	found := false
	for _, r := range res.Foreign {
		if r.ID == fid {
			found = true
			if r.Err != nil || !bytes.Equal(r.Datagram, foreign) {
				t.Fatalf("foreign flow mangled: %+v", r)
			}
		}
	}
	if !found {
		t.Fatal("foreign flow's result not surfaced")
	}
	// The session survived the fetcher: it still accepts traffic.
	if _, err := s.Send([]byte("still open")); err != nil {
		t.Fatalf("session closed by fetcher: %v", err)
	}
	if _, err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
}

func TestFetchCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Fetch(ctx, make([]byte, 4<<10), Config{
		Params: fetchParams(),
		Options: []link.Option{
			link.WithChannel(channel.NewAWGN(12, 61)),
		},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestFetchOutage pins how a fetch fails now that no segment is
// resubmitted: a hopeless medium runs the segment's flow out of the
// session's round budget, and the fetch returns that error wrapped.
func TestFetchOutage(t *testing.T) {
	_, err := Fetch(context.Background(), make([]byte, 1024), Config{
		Params: fetchParams(),
		Options: []link.Option{
			link.WithChannel(channel.NewAWGN(-15, 71)), // hopeless medium
			link.WithMaxRounds(32),
		},
		SegmentBytes: 512,
	})
	if !errors.Is(err, link.ErrFlowBudget) {
		t.Fatalf("err = %v, want link.ErrFlowBudget", err)
	}
}

// ackFlows is a FeedbackObserver that records which flows a receiver
// acknowledged.
type ackFlows map[link.FlowID]bool

func (a ackFlows) ObserveFeedback(ev link.FeedbackEvent) {
	if ev.Kind == link.AckSent {
		a[ev.Flow] = true
	}
}

// TestFetchOneFlowPerSegment holds the fetch to the rateless contract:
// no segment's symbols are spent twice. Acks arrive 4 rounds late and 20%
// of them are lost, with the RTO bounds that once made segments time out
// and resubmit; still every segment is exactly one link flow, counted by
// the distinct flows the receiver acknowledged.
func TestFetchOneFlowPerSegment(t *testing.T) {
	acked := ackFlows{}
	s, err := link.NewSession(fetchParams(),
		link.WithChannel(channel.NewAWGN(10, 31)),
		link.WithRatePolicy(link.CapacityRate{SNREstimateDB: 10}),
		link.WithFeedback(link.FeedbackConfig{DelayRounds: 4, Loss: 0.2}),
		link.WithFeedbackObserver(acked),
		link.WithSeed(31))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rng := rand.New(rand.NewSource(2))
	payload := make([]byte, 16<<10)
	rng.Read(payload)
	res, err := Fetch(context.Background(), payload, Config{
		Session: s,
		InitRTO: 24,
		MinRTO:  8,
		MaxRTO:  96,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res.Payload, payload) {
		t.Fatal("payload corrupted")
	}
	if len(acked) != res.Segments {
		t.Fatalf("%d link flows for %d segments", len(acked), res.Segments)
	}
	t.Logf("steps=%d srtt=%.1f rto=%d cwndMax=%.0f goodput=%.3f",
		res.Steps, res.SRTT, res.RTO, res.CwndMax, res.Goodput)
}

// TestFetcherReuseAfterCancel reuses a Fetcher whose fetch was canceled
// with segments in flight: those flows still resolve on the session
// during the next fetch, and must surface as foreign flows rather than
// be taken for the new fetch's segments.
func TestFetcherReuseAfterCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	f, err := NewFetcher(Config{
		Params: fetchParams(),
		Options: []link.Option{
			link.WithChannel(channel.NewAWGN(12, 91)),
			link.WithRatePolicy(link.CapacityRate{SNREstimateDB: 12}),
		},
		SegmentBytes: 1024,
		WindowTrace: func(step int, _ float64) {
			if step == 3 {
				cancel()
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rng := rand.New(rand.NewSource(7))
	first := make([]byte, 8<<10)
	rng.Read(first)
	if _, err := f.Fetch(ctx, first); !errors.Is(err, context.Canceled) {
		t.Fatalf("first fetch: err = %v, want context.Canceled", err)
	}
	second := make([]byte, 2<<10)
	rng.Read(second)
	res, err := f.Fetch(context.Background(), second)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res.Payload, second) {
		t.Fatalf("second fetch returned %d bytes, want its own %d", len(res.Payload), len(second))
	}
	if len(res.Foreign) == 0 {
		t.Fatal("the canceled fetch's flows did not surface as foreign")
	}
}

func TestFetchEmptyPayload(t *testing.T) {
	res, err := Fetch(context.Background(), nil, Config{
		Params: fetchParams(),
		Options: []link.Option{
			link.WithChannel(channel.NewAWGN(12, 81)),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Payload) != 0 || res.Segments != 1 {
		t.Fatalf("empty fetch: %d bytes, %d segments", len(res.Payload), res.Segments)
	}
}

// BenchmarkFetchPipeline is the transport tier's headline benchmark: a
// 16 KiB payload pipelined over a 12 dB AWGN link with instant acks.
func BenchmarkFetchPipeline(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	payload := make([]byte, 16<<10)
	rng.Read(payload)
	b.SetBytes(int64(len(payload)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := Fetch(context.Background(), payload, Config{
			Params: fetchParams(),
			Options: []link.Option{
				link.WithChannel(channel.NewAWGN(12, int64(i))),
				link.WithRatePolicy(link.CapacityRate{SNREstimateDB: 12}),
			},
			SegmentBytes: 1024,
		})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Payload) != len(payload) {
			b.Fatal("short fetch")
		}
	}
}

// BenchmarkFetchDelayed is the fetch-delay4 workload in process: a fixed
// 16 KiB payload as 1 KiB segments over a 10 dB AWGN link, B=16, acks 4
// rounds late, half-duplex ack airtime, a two-way codec fan-out, RTO bounds
// 24/8/96 rounds. Delayed acks are where a segment
// resubmit path would show, in rounds and allocations; every iteration
// is the same seeded fetch, so allocs/op is a stable gate.
func BenchmarkFetchDelayed(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	payload := make([]byte, 16<<10)
	rng.Read(payload)
	p := spinal.DefaultParams()
	p.B = 16
	b.SetBytes(int64(len(payload)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := Fetch(context.Background(), payload, Config{
			Params: p,
			Options: []link.Option{
				link.WithChannel(channel.NewAWGN(10, 1)),
				link.WithRatePolicy(link.CapacityRate{SNREstimateDB: 10}),
				link.WithFeedback(link.FeedbackConfig{DelayRounds: 4}),
				link.WithHalfDuplex(0),
				link.WithCodecPool(2),
				link.WithSeed(1),
			},
			SegmentBytes: 1024,
			InitRTO:      24,
			MinRTO:       8,
			MaxRTO:       96,
		})
		if err != nil {
			b.Fatal(err)
		}
		if !bytes.Equal(res.Payload, payload) {
			b.Fatal("payload corrupted")
		}
	}
}
