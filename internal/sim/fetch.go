// The fetch-cubic scenario: one windowed transport fetch instead of a
// flow population. The scenario driver consumes the public
// spinal/transport API for the same reason it consumes public spinal/link
// — the surface it measures is the surface it pins.
package sim

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"

	"spinal/channel"
	"spinal/code"
	"spinal/link"
	"spinal/transport"
)

// measureFetchScenario runs "fetch-cubic": a payload pipelined by
// transport.Fetch over a steady 10 dB AWGN link whose acks arrive 4
// rounds late and 20% lost, where each segment must still be sent once.
// The name predates the fetch's current window and is kept as the golden
// key. ScenarioConfig.MaxBytes is the payload size (0 ⇒ 16 KiB);
// segments are a fixed 1 KiB. The policy is
// session-scoped (shared by every segment flow), so the default is the
// stateless "capacity" rather than the stateful "tracking".
func measureFetchScenario(cfg ScenarioConfig) (ScenarioResult, error) {
	const snrDB = 10
	policy := cfg.Policy
	if policy == "" {
		policy = "capacity"
	}
	res := ScenarioResult{Scenario: cfg.Scenario, Policy: policy, Code: cfg.Code}
	size := cfg.MaxBytes
	if size <= 0 {
		size = 16 << 10
	}
	feedback := &link.FeedbackConfig{DelayRounds: 4, Loss: 0.2}
	if cfg.Feedback != nil {
		feedback = cfg.Feedback
	}
	rate, err := NewPolicy(policy, snrDB)
	if err != nil {
		return res, err
	}
	opts := []link.Option{
		link.WithChannel(channel.NewAWGN(snrDB, cfg.Seed)),
		link.WithRatePolicy(rate),
		link.WithMaxBlockBits(cfg.MaxBlockBits),
		link.WithCodecPool(cfg.Shards),
		link.WithFrameSymbols(cfg.FrameSymbols),
		link.WithSeed(cfg.Seed),
		link.WithFeedback(*feedback),
		link.WithInvariantChecks(),
	}
	if cfg.HalfDuplex {
		opts = append(opts, link.WithHalfDuplex(0))
	}
	if cfg.Code != "" {
		c, err := code.Parse(cfg.Code, cfg.Params)
		if err != nil {
			return res, err
		}
		opts = append(opts, link.WithCode(c))
	}

	rng := rand.New(rand.NewSource(cfg.Seed))
	payload := make([]byte, size)
	rng.Read(payload)
	tr, err := transport.Fetch(context.Background(), payload, transport.Config{
		Params:       cfg.Params,
		Options:      opts,
		SegmentBytes: 1024,
		InitRTO:      24,
		MinRTO:       8,
		MaxRTO:       96,
	})
	if err != nil {
		return res, err
	}
	if !bytes.Equal(tr.Payload, payload) {
		return res, fmt.Errorf("sim: fetch-cubic payload corrupted in flight")
	}
	res.Flows = tr.Segments
	res.Delivered = tr.Segments
	res.Bytes = int64(len(tr.Payload))
	res.Symbols = int64(tr.SymbolsSent)
	res.AckSymbols = int64(tr.AckSymbols)
	res.Rounds = tr.Steps
	res.Goodput = tr.Goodput
	res.MeanStateDB = snrDB // the AWGN state is the scenario's one constant
	res.SRTTRounds = tr.SRTT
	res.CwndMax = tr.CwndMax
	return res, nil
}
