package link_test

import (
	"bytes"
	"context"
	"fmt"
	"io"

	"spinal"
	"spinal/channel"
	"spinal/link"
)

// quickParams keeps the examples fast: a narrow beam decodes small
// payloads instantly and deterministically.
func quickParams() spinal.Params {
	p := spinal.DefaultParams()
	p.B = 16
	return p
}

// ExampleSession transmits one datagram over an AWGN channel and drains
// the session to completion.
func ExampleSession() {
	s, err := link.NewSession(quickParams(),
		link.WithChannel(channel.NewAWGN(12, 1)),
	)
	if err != nil {
		panic(err)
	}
	defer s.Close()

	msg := []byte("rateless all the way down")
	id, _ := s.Send(msg)
	results, err := s.Drain(context.Background())
	if err != nil {
		panic(err)
	}
	r := results[0]
	fmt.Println("flow:", r.ID == id)
	fmt.Println("delivered:", bytes.Equal(r.Datagram, msg))
	fmt.Println("blocks:", r.Stats.Blocks)
	// Output:
	// flow: true
	// delivered: true
	// blocks: 1
}

// ExampleConn streams bytes through the io.Reader/io.Writer façade: what
// goes in one end comes out the other, having crossed the channel as
// rateless spinal datagrams.
func ExampleConn() {
	c, err := link.Dial(quickParams(), channel.NewAWGN(12, 2))
	if err != nil {
		panic(err)
	}
	defer c.Close()

	if _, err := c.Write([]byte("hello, ")); err != nil {
		panic(err)
	}
	if _, err := c.Write([]byte("spinal codes")); err != nil {
		panic(err)
	}
	got, _ := io.ReadAll(c)
	fmt.Printf("%s\n", got)
	fmt.Println("rate > 0:", c.Stats().Rate > 0)
	// Output:
	// hello, spinal codes
	// rate > 0: true
}

// ExampleWithChannel gives a flow a time-varying medium: any
// channel.Model drops in.
func ExampleWithChannel() {
	s, err := link.NewSession(quickParams(),
		link.WithChannel(channel.NewGilbertElliott(18, 2, 0.001, 0.004, 3)),
	)
	if err != nil {
		panic(err)
	}
	defer s.Close()
	msg := []byte("through the bursts")
	s.Send(msg)
	results, _ := s.Drain(context.Background())
	fmt.Println("delivered:", bytes.Equal(results[0].Datagram, msg))
	// Output:
	// delivered: true
}

// ExampleWithRatePolicy paces a flow with a capacity-estimate burst
// policy instead of the default one-subpass trickle.
func ExampleWithRatePolicy() {
	s, err := link.NewSession(quickParams(),
		link.WithChannel(channel.NewAWGN(15, 4)),
		link.WithRatePolicy(link.CapacityRate{SNREstimateDB: 15}),
	)
	if err != nil {
		panic(err)
	}
	defer s.Close()
	msg := []byte("burst to the decoding point")
	s.Send(msg)
	results, _ := s.Drain(context.Background())
	r := results[0]
	fmt.Println("delivered:", bytes.Equal(r.Datagram, msg))
	fmt.Println("few frames:", r.Stats.Frames <= 3)
	// Output:
	// delivered: true
	// few frames: true
}

// ExampleWithRatePolicyFunc installs a factory so every flow gets its
// own stateful closed-loop policy.
func ExampleWithRatePolicyFunc() {
	s, err := link.NewSession(quickParams(),
		link.WithChannel(channel.NewAWGN(10, 5)),
		link.WithRatePolicyFunc(func() link.RatePolicy {
			return link.NewTrackingRate(10)
		}),
	)
	if err != nil {
		panic(err)
	}
	defer s.Close()
	a, b := []byte("first flow"), []byte("second flow")
	s.Send(a)
	s.Send(b)
	results, _ := s.Drain(context.Background())
	ok := 0
	for _, r := range results {
		if r.Err == nil {
			ok++
		}
	}
	fmt.Println("delivered:", ok)
	// Output:
	// delivered: 2
}

// ExampleWithFeedback replaces §6's instant perfect acks with a delayed
// lossy reverse channel; the sender's ARQ timers carry the transfer.
func ExampleWithFeedback() {
	s, err := link.NewSession(quickParams(),
		link.WithChannel(channel.NewAWGN(12, 6)),
		link.WithFeedback(link.FeedbackConfig{DelayRounds: 3, Loss: 0.2}),
		link.WithSeed(42),
	)
	if err != nil {
		panic(err)
	}
	defer s.Close()
	msg := []byte("acks take the scenic route")
	s.Send(msg)
	results, _ := s.Drain(context.Background())
	r := results[0]
	fmt.Println("delivered:", bytes.Equal(r.Datagram, msg))
	fmt.Println("acks sent > 0:", r.Stats.AcksSent > 0)
	// Output:
	// delivered: true
	// acks sent > 0: true
}

// ExampleWithHalfDuplex runs §6's half-duplex sender: CapacityRate sizes
// each round's burst from an SNR estimate, and the ack that ends it is
// charged against the flow, so the reported rate divides by forward plus
// reverse symbols.
func ExampleWithHalfDuplex() {
	s, err := link.NewSession(quickParams(),
		link.WithChannel(channel.NewAWGN(12, 8)),
		link.WithRatePolicy(link.CapacityRate{SNREstimateDB: 12}),
		link.WithHalfDuplex(2), // QPSK-like reverse link
	)
	if err != nil {
		panic(err)
	}
	defer s.Close()
	msg := []byte("acks are not free on a shared medium")
	s.Send(msg)
	results, _ := s.Drain(context.Background())
	r := results[0]
	fmt.Println("ack symbols charged:", r.Stats.AckSymbols > 0)
	honest := float64(len(msg)*8) / float64(r.Stats.SymbolsSent+r.Stats.AckSymbols)
	fmt.Println("rate is airtime-honest:", r.Stats.Rate == honest)
	// Output:
	// ack symbols charged: true
	// rate is airtime-honest: true
}

// ExampleWithCodecPool bounds the goroutines each round's encode and
// decode work runs on.
func ExampleWithCodecPool() {
	s, err := link.NewSession(quickParams(),
		link.WithChannel(channel.NewAWGN(15, 9)),
		link.WithCodecPool(2),
	)
	if err != nil {
		panic(err)
	}
	defer s.Close()
	for i := 0; i < 4; i++ {
		s.Send([]byte("one of several concurrent flows"))
	}
	results, _ := s.Drain(context.Background())
	fmt.Println("flows resolved:", len(results))
	// Output:
	// flows resolved: 4
}

// ExampleWithFeedbackObserver taps reverse-channel telemetry through the
// FeedbackObserver extension interface.
func ExampleWithFeedbackObserver() {
	var events int
	s, err := link.NewSession(quickParams(),
		link.WithChannel(channel.NewAWGN(12, 10)),
		link.WithFeedback(link.FeedbackConfig{DelayRounds: 1}),
		link.WithFeedbackObserver(observerFunc(func(ev link.FeedbackEvent) {
			events++
		})),
	)
	if err != nil {
		panic(err)
	}
	defer s.Close()
	s.Send([]byte("watched all the way"))
	results, _ := s.Drain(context.Background())
	fmt.Println("delivered:", results[0].Err == nil)
	fmt.Println("events observed:", events > 0)
	// Output:
	// delivered: true
	// events observed: true
}

// observerFunc adapts a function to the FeedbackObserver interface.
type observerFunc func(link.FeedbackEvent)

func (f observerFunc) ObserveFeedback(ev link.FeedbackEvent) { f(ev) }
