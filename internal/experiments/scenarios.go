package experiments

import (
	"fmt"

	"spinal/internal/core"
	"spinal/internal/link"
	"spinal/internal/sim"
)

// ScenarioGoodput compares the link engine's rate policies on the bursty
// Gilbert–Elliott scenario (sim.MeasureScenario "burst"): multi-block
// datagrams under a 16-round delivery deadline over a channel that
// alternates 18 dB good periods with ≈250-symbol 2 dB bursts. FixedRate
// trickles one subpass per block per round and times out inside bad
// bursts; CapacityRate bursts from a stale good-state estimate;
// TrackingRate closes the loop on decode feedback. Goodput is delivered
// payload bits per channel symbol spent, outage symbols included.
func ScenarioGoodput(cfg Config) []*Table {
	flows := 48
	// The comparison is between pacing policies on one code, so a narrow
	// beam suffices (absolute rate is the business of fig8-1); it keeps
	// the quick-scale suite fast.
	p := core.Params{K: 4, B: 16, D: 1, C: 6, Tail: 2, Ways: 8}
	if cfg.Quick {
		flows = 16
	} else {
		p.B = 64
	}
	t := &Table{
		Name:   "scenario-goodput",
		Title:  "bursty-channel goodput by rate policy (Gilbert-Elliott 18/2 dB, 16-round deadline)",
		Header: []string{"policy", "delivered", "outage", "goodput(b/sym)", "symbols", "rounds"},
	}
	for _, pol := range []string{"fixed", "fixed:8", "capacity", "tracking"} {
		res, err := sim.MeasureScenario(sim.ScenarioConfig{
			Params:       p,
			Scenario:     "burst",
			Policy:       pol,
			Flows:        flows,
			Concurrency:  6,
			MinBytes:     96,
			MaxBytes:     192,
			MaxRounds:    16,
			MaxBlockBits: 192,
			Shards:       2,
			Seed:         cfg.Seed*1_000_003 + 42,
		})
		if err != nil {
			panic(err) // static scenario names; cannot fail
		}
		t.AddRow(pol, fmt.Sprintf("%d/%d", res.Delivered, res.Flows),
			fmt.Sprintf("%.0f%%", 100*res.OutageRate), f3(res.Goodput),
			fmt.Sprint(res.Symbols), fmt.Sprint(res.Rounds))
	}
	return []*Table{t}
}

// FeedbackGoodput compares rate policies under realistic ARQ feedback
// (sim.MeasureScenario "feedback-delay"/"feedback-loss"): mixed-SNR AWGN
// flows where only the reverse path varies. The sweep crosses tracking
// and fixed pacing with 0-, 2- and 8-round ack delays, then adds the
// named lossy-ack scenario and half-duplex ack airtime at the 2-round
// point. The receiver chase-combines throughout: symbols from failed
// attempts are kept for the next one.
func FeedbackGoodput(cfg Config) []*Table {
	flows := 24
	p := core.Params{K: 4, B: 16, D: 1, C: 6, Tail: 2, Ways: 8}
	if cfg.Quick {
		flows = 8
	} else {
		p.B = 64
	}
	base := func(scenario, policy string) sim.ScenarioConfig {
		return sim.ScenarioConfig{
			Params:       p,
			Scenario:     scenario,
			Policy:       policy,
			Flows:        flows,
			Concurrency:  4,
			MinBytes:     40,
			MaxBytes:     90,
			MaxRounds:    96,
			MaxBlockBits: 192,
			Shards:       2,
			Seed:         cfg.Seed*1_000_003 + 20260730,
		}
	}
	t := &Table{
		Name:   "feedback-goodput",
		Title:  "ARQ feedback: goodput by rate policy and ack impairment (mixed 7/10/14 dB AWGN)",
		Header: []string{"feedback", "policy", "delivered", "outage", "goodput(b/sym)", "rounds", "retx", "acks lost", "ack sym"},
	}
	type row struct {
		label string
		cfg   sim.ScenarioConfig
	}
	var rows []row
	for _, delay := range []int{0, 2, 8} {
		for _, pol := range []string{"fixed", "tracking"} {
			c := base("feedback-delay", pol)
			c.Feedback = &link.FeedbackConfig{DelayRounds: delay}
			rows = append(rows, row{fmt.Sprintf("delay %d", delay), c})
		}
	}
	rows = append(rows, row{"loss 30% (delay 2)", base("feedback-loss", "tracking")})
	// Half-duplex accounting: the same delay-2 exchange, but ack airtime
	// is charged against goodput (link.WithHalfDuplex) — the ROADMAP's
	// shared-medium follow-on, and the knob the IBFD WLAN literature says
	// a link API must surface rather than bury.
	halfDuplex := base("feedback-delay", "tracking")
	halfDuplex.Feedback = &link.FeedbackConfig{DelayRounds: 2}
	halfDuplex.HalfDuplex = true
	rows = append(rows, row{"delay 2, half-duplex", halfDuplex})
	for _, r := range rows {
		res, err := sim.MeasureScenario(r.cfg)
		if err != nil {
			panic(err) // static scenario names; cannot fail
		}
		t.AddRow(r.label, res.Policy, fmt.Sprintf("%d/%d", res.Delivered, res.Flows),
			fmt.Sprintf("%.0f%%", 100*res.OutageRate), f3(res.Goodput),
			fmt.Sprint(res.Rounds), fmt.Sprint(res.Retransmissions), fmt.Sprint(res.AcksLost),
			fmt.Sprint(res.AckSymbols))
	}
	return []*Table{t}
}
