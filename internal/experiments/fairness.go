package experiments

import (
	"fmt"

	"spinal/internal/core"
	"spinal/internal/link"
	"spinal/internal/sim"
)

// fairnessParams is the narrow-beam code the scheduling experiments run:
// the comparison is between admission schedulers on one code, so decode
// rate is held constant and cheap.
func fairnessParams(cfg Config) core.Params {
	p := core.Params{K: 4, B: 16, D: 1, C: 6, Tail: 2, Ways: 8}
	if !cfg.Quick {
		p.B = 64
	}
	return p
}

// fairnessPoint runs one mice-elephants measurement — flows concurrent
// bimodal flows over a steady 12 dB medium under the named scheduler,
// DWFQ paced at the processor-sharing quantum FrameSymbols/flows. The
// experiment table and TestFairnessOrdering share this exact config.
func fairnessPoint(cfg Config, flows int, sched string) sim.ScenarioResult {
	const frameSymbols = 2048
	res, err := sim.MeasureScenario(sim.ScenarioConfig{
		Params:           fairnessParams(cfg),
		Scenario:         "mice-elephants",
		Policy:           "capacity:12",
		Flows:            flows,
		Concurrency:      flows,
		MaxRounds:        1 << 12,
		MaxBlockBits:     192,
		FrameSymbols:     frameSymbols,
		Shards:           2,
		Seed:             cfg.Seed*1_000_003 + 20260807,
		Scheduler:        sched,
		SchedulerQuantum: frameSymbols / flows,
	})
	if err != nil {
		panic(err) // static scenario name; cannot fail
	}
	return res
}

// FlowFairness compares round-robin admission with deficit-weighted fair
// queuing on the mice-elephants mix: a few 1 KiB elephants sharing the
// frame with dozens of sub-128 B mice, all concurrent. Under RR every
// flow is offered symbols each visit regardless of size, so elephants
// monopolize early rounds and mice queue behind them; DWFQ's per-round
// credit equalizes symbol spend, which shows up as Jain's index over
// per-flow throughput near 1 and a shorter mice completion tail. The
// ordering (DWFQ Jain ≥ 0.95 and ahead of RR, mice p99 no worse) is
// asserted by TestFairnessOrdering.
func FlowFairness(cfg Config) []*Table {
	flowCounts := []int{16, 32}
	if !cfg.Quick {
		flowCounts = []int{16, 32, 64}
	}
	t := &Table{
		Name:   "flow-fairness",
		Title:  "mice-elephants fairness: RR vs DWFQ (12 dB AWGN, bimodal sizes, all flows concurrent)",
		Header: []string{"flows", "scheduler", "delivered", "goodput(b/sym)", "jain", "mice p50", "p95", "p99(rounds)"},
	}
	for _, flows := range flowCounts {
		for _, sched := range []string{"rr", "dwfq"} {
			res := fairnessPoint(cfg, flows, sched)
			t.AddRow(fmt.Sprint(flows), sched,
				fmt.Sprintf("%d/%d", res.Delivered, res.Flows),
				f3(res.Goodput), f3(res.JainIndex),
				fmt.Sprint(res.MiceP50Rounds), fmt.Sprint(res.MiceP95Rounds),
				fmt.Sprint(res.MiceP99Rounds))
		}
	}
	return []*Table{t}
}

// TransportFetch measures the windowed fetch (spinal/transport) through
// the fetch-cubic scenario: a payload pipelined as 1 KiB segments at
// 10 dB, with the reverse channel swept from instant acks to the
// scenario's 4-round-delayed 20%-lossy default. Each segment is one link
// flow whatever the feedback path does, so impairing it costs only the
// symbols sent while acks are late; the SRTT estimate shows the delay
// the pipeline saw.
func TransportFetch(cfg Config) []*Table {
	size := 16 << 10
	if !cfg.Quick {
		size = 64 << 10
	}
	t := &Table{
		Name:   "transport-fetch",
		Title:  "windowed fetch: one flow per segment vs reverse-channel impairment (10 dB AWGN, 1 KiB segments)",
		Header: []string{"feedback", "segments", "srtt(rounds)", "peak cwnd", "rounds", "goodput(b/sym)"},
	}
	type row struct {
		label    string
		feedback *link.FeedbackConfig
	}
	for _, r := range []row{
		{"instant", &link.FeedbackConfig{}},
		{"delay 4", &link.FeedbackConfig{DelayRounds: 4}},
		{"delay 4, loss 20%", nil}, // the scenario default
	} {
		res, err := sim.MeasureScenario(sim.ScenarioConfig{
			Params:   fairnessParams(cfg),
			Scenario: "fetch-cubic",
			MaxBytes: size,
			Shards:   2,
			Seed:     cfg.Seed*1_000_003 + 20260807,
			Feedback: r.feedback,
		})
		if err != nil {
			panic(err) // static scenario name; cannot fail
		}
		t.AddRow(r.label, fmt.Sprint(res.Flows), f2(res.SRTTRounds), f2(res.CwndMax),
			fmt.Sprint(res.Rounds), f3(res.Goodput))
	}
	return []*Table{t}
}
