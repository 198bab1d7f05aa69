package sim

import (
	"math"
	"strings"
	"testing"

	"spinal/internal/channel"
	"spinal/internal/core"
	"spinal/internal/link"
)

// scenarioParams is the B = 16 spinal code the scenario tests and the
// golden matrix run.
func scenarioParams() core.Params {
	return core.Params{K: 4, B: 16, D: 1, C: 6, Tail: 2, Ways: 8}
}

// burstScenario is the Gilbert–Elliott operating point of the EXPERIMENTS
// goodput table: multi-block datagrams under a 16-round delivery deadline,
// so a policy that cannot traverse bad bursts in time shows up as outage.
func burstScenario(policy string, seed int64) ScenarioConfig {
	return ScenarioConfig{
		Params:       scenarioParams(),
		Scenario:     "burst",
		Policy:       policy,
		Flows:        16,
		Concurrency:  6,
		MinBytes:     96,
		MaxBytes:     192,
		MaxRounds:    16,
		MaxBlockBits: 192,
		Shards:       2,
		Seed:         seed,
	}
}

// TestScenarioTrackingBeatsFixedOnBurst is the headline acceptance check:
// on the bursty Gilbert–Elliott scenario, closed-loop TrackingRate
// achieves strictly higher aggregate goodput than FixedRate pacing —
// the fixed policy trickles one subpass per round, cannot cross bad
// bursts before the delivery deadline, and burns symbols on flows that
// then time out.
func TestScenarioTrackingBeatsFixedOnBurst(t *testing.T) {
	fixed, err := MeasureScenario(burstScenario("fixed", 42))
	if err != nil {
		t.Fatal(err)
	}
	tracking, err := MeasureScenario(burstScenario("tracking", 42))
	if err != nil {
		t.Fatal(err)
	}
	if tracking.Goodput <= fixed.Goodput {
		t.Fatalf("tracking goodput %.3f not strictly above fixed %.3f\nfixed: %v\ntracking: %v",
			tracking.Goodput, fixed.Goodput, fixed, tracking)
	}
	if fixed.Outages == 0 {
		t.Fatalf("scenario lost its teeth: fixed-rate pacing had no outages (%v)", fixed)
	}
	if tracking.Outages != 0 {
		t.Fatalf("tracking pacing suffered outages: %v", tracking)
	}
}

// TestScenarioDeterministic: identical seeds reproduce identical results,
// field for field, despite the engine's internal parallelism.
func TestScenarioDeterministic(t *testing.T) {
	a, err := MeasureScenario(burstScenario("tracking", 7))
	if err != nil {
		t.Fatal(err)
	}
	b, err := MeasureScenario(burstScenario("tracking", 7))
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("nondeterministic scenario:\n%+v\n%+v", a, b)
	}
}

// TestScenarioAllNamesDeliver: every named scenario (including a
// trace-driven one from testdata) runs and delivers under relaxed
// deadlines.
func TestScenarioAllNamesDeliver(t *testing.T) {
	for _, sc := range []string{
		"burst", "walk", "churn",
		"trace:../channel/testdata/stepdown.trace",
		"trace:../channel/testdata/fade.trace",
		"feedback-delay", "feedback-loss",
	} {
		res, err := MeasureScenario(ScenarioConfig{
			Params:       scenarioParams(),
			Scenario:     sc,
			Policy:       "tracking",
			Flows:        6,
			Concurrency:  3,
			MinBytes:     40,
			MaxBytes:     80,
			MaxRounds:    96,
			MaxBlockBits: 192,
			Shards:       2,
			Seed:         11,
		})
		if err != nil {
			t.Fatalf("%s: %v", sc, err)
		}
		if res.Delivered != 6 || res.Outages != 0 {
			t.Fatalf("%s: %v", sc, res)
		}
		if res.Goodput <= 0 || res.Rounds == 0 || res.Symbols == 0 {
			t.Fatalf("%s: empty accounting: %v", sc, res)
		}
		if res.MeanStateDB == 0 {
			t.Fatalf("%s: StateDB trajectory not observed: %v", sc, res)
		}
	}
}

// feedbackScenario is the operating point of the feedback golden entries
// and the EXPERIMENTS feedback table: mixed-SNR AWGN flows (7/10/14 dB,
// multiple passes per block the norm) where only the reverse path varies.
func feedbackScenario(scenario, policy string, seed int64) ScenarioConfig {
	return ScenarioConfig{
		Params:       scenarioParams(),
		Scenario:     scenario,
		Policy:       policy,
		Flows:        8,
		Concurrency:  4,
		MinBytes:     40,
		MaxBytes:     90,
		MaxRounds:    96,
		MaxBlockBits: 192,
		Shards:       2,
		Seed:         seed,
	}
}

// TestFeedbackGoodputOrdering pins the impairment ordering on identical
// forward channels: instant feedback ≥ 8-round-delayed feedback ≥ lossy
// feedback in goodput, with delay additionally costing wall-clock rounds
// even when it costs no symbols (acks are free to wait for; lost acks
// are not — the retransmission timers burn real symbols).
func TestFeedbackGoodputOrdering(t *testing.T) {
	const seed = 20260730
	ideal := feedbackScenario("feedback-delay", "tracking", seed)
	ideal.Feedback = &link.FeedbackConfig{DelayRounds: 0}
	base, err := MeasureScenario(ideal)
	if err != nil {
		t.Fatal(err)
	}
	delayed, err := MeasureScenario(feedbackScenario("feedback-delay", "tracking", seed))
	if err != nil {
		t.Fatal(err)
	}
	lossy, err := MeasureScenario(feedbackScenario("feedback-loss", "tracking", seed))
	if err != nil {
		t.Fatal(err)
	}
	if base.Goodput < delayed.Goodput || delayed.Goodput < lossy.Goodput {
		t.Fatalf("goodput ordering violated: ideal %.3f, delay %.3f, loss %.3f",
			base.Goodput, delayed.Goodput, lossy.Goodput)
	}
	if base.Goodput <= lossy.Goodput {
		t.Fatalf("ack loss cost nothing: ideal %.3f vs lossy %.3f", base.Goodput, lossy.Goodput)
	}
	if base.Rounds >= delayed.Rounds {
		t.Fatalf("an 8-round ack delay cost no rounds: ideal %d vs delayed %d", base.Rounds, delayed.Rounds)
	}
	if lossy.Retransmissions == 0 || lossy.AcksLost == 0 {
		t.Fatalf("lossy scenario shows no ARQ activity: %v", lossy)
	}
}

// TestScenarioChurnOutageAccounting pins the outage bookkeeping under
// churn with real budget exhaustion: every resolved flow — including the
// ones abandoned via ErrFlowBudget, whose nil datagram also fails the
// corruption comparison — counts exactly once, so Delivered + Outages
// must equal Flows and the outage fraction must be exactly their ratio.
// (The audit behind this test: the error and corruption checks share one
// increment; splitting them would double-count abandoned flows.)
func TestScenarioChurnOutageAccounting(t *testing.T) {
	cfg := ScenarioConfig{
		Params:       scenarioParams(),
		Scenario:     "churn",
		Policy:       "fixed", // trickle pacing under a tight deadline forces outages
		Flows:        12,
		Concurrency:  4,
		MinBytes:     80,
		MaxBytes:     160,
		MaxRounds:    10,
		MaxBlockBits: 192,
		Shards:       2,
		Seed:         99,
	}
	res, err := MeasureScenario(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outages == 0 {
		t.Fatalf("deadline never bit — the regression test has no teeth: %v", res)
	}
	if res.Delivered+res.Outages != res.Flows {
		t.Fatalf("flows double- or under-counted: %d delivered + %d outages != %d flows",
			res.Delivered, res.Outages, res.Flows)
	}
	if want := float64(res.Outages) / float64(res.Flows); res.OutageRate != want {
		t.Fatalf("outage fraction %.6f, want exactly %.6f", res.OutageRate, want)
	}
}

func TestScenarioErrors(t *testing.T) {
	base := burstScenario("tracking", 1)
	base.Scenario = "no-such-scenario"
	if _, err := MeasureScenario(base); err == nil {
		t.Fatal("unknown scenario accepted")
	}
	base = burstScenario("warp-speed", 1)
	if _, err := MeasureScenario(base); err == nil {
		t.Fatal("unknown policy accepted")
	}
	base = burstScenario("tracking", 1)
	base.Scenario = "trace:../channel/testdata/missing.trace"
	if _, err := MeasureScenario(base); err == nil {
		t.Fatal("missing trace file accepted")
	}
}

func TestNewPolicy(t *testing.T) {
	cases := []struct {
		spec string
		want string
	}{
		{"", "*link.TrackingRate"},
		{"tracking", "*link.TrackingRate"},
		{"tracking:7.5", "*link.TrackingRate"},
		{"fixed", "link.FixedRate"},
		{"fixed:4", "link.FixedRate"},
		{"capacity", "link.CapacityRate"},
		{"capacity:12", "link.CapacityRate"},
	}
	for _, c := range cases {
		p, err := NewPolicy(c.spec, 10)
		if err != nil {
			t.Fatalf("%q: %v", c.spec, err)
		}
		if got := typeName(p); got != c.want {
			t.Fatalf("%q built %s, want %s", c.spec, got, c.want)
		}
	}
	if p, _ := NewPolicy("fixed:4", 0); p.(link.FixedRate) != 4 {
		t.Fatal("fixed:4 lost its subpass count")
	}
	if p, _ := NewPolicy("capacity", 17); p.(link.CapacityRate).SNREstimateDB != 17 {
		t.Fatal("capacity did not take the scenario hint")
	}
	if p, _ := NewPolicy("tracking:3", 17); math.Abs(p.(*link.TrackingRate).EstimateDB()-3) > 1e-9 {
		t.Fatal("tracking:3 ignored its explicit estimate")
	}
	for _, bad := range []string{"fixed:0", "fixed:x", "capacity:x", "tracking:x", "bogus",
		"tracking:NaN", "capacity:NaN", "capacity:Inf", "capacity:-Inf", "tracking:+Inf",
		"capacity:1e308", "fixed:9999999999"} {
		if _, err := NewPolicy(bad, 10); err == nil {
			t.Fatalf("%q accepted", bad)
		}
	}
}

// FuzzNewPolicy holds the policy-spec parser (spinalcat's and
// spinalsim's -policy flag) to its contract: no input panics, every
// accepted policy asks for 1..maxFixedSubpasses subpasses on a grid of
// block geometries, and a tracking policy's estimate stays finite after
// it observes a decode.
func FuzzNewPolicy(f *testing.F) {
	for _, spec := range []string{"", "tracking", "tracking:7.5", "fixed", "fixed:4",
		"capacity", "capacity:12", "tracking:NaN", "capacity:NaN", "capacity:Inf",
		"capacity:-Inf", "tracking:+Inf", "fixed:9999999999", "capacity:-100"} {
		f.Add(spec, 10.0)
	}
	f.Add("capacity", math.NaN())
	f.Add("tracking", math.Inf(1))
	f.Fuzz(func(t *testing.T, spec string, hintDB float64) {
		p, err := NewPolicy(spec, hintDB)
		if err != nil {
			return
		}
		for _, bits := range []int{8, 144, 1024} {
			for _, sub := range []int{0, 1, 9, 32} {
				for _, sent := range []int{0, 100, 1 << 16} {
					if n := p.SubpassBudget(bits, sub, sent); n < 1 || n > maxFixedSubpasses {
						t.Fatalf("%q (hint %v): budget %d for %d bits, %d sym/subpass, %d sent",
							spec, hintDB, n, bits, sub, sent)
					}
				}
			}
		}
		if tr, ok := p.(*link.TrackingRate); ok {
			tr.ObserveDecode(1024, 400)
			if est := tr.EstimateDB(); math.IsNaN(est) || math.IsInf(est, 0) {
				t.Fatalf("%q (hint %v): estimate %v after a decode", spec, hintDB, est)
			}
		}
	})
}

func typeName(v any) string {
	switch v.(type) {
	case *link.TrackingRate:
		return "*link.TrackingRate"
	case link.FixedRate:
		return "link.FixedRate"
	case link.CapacityRate:
		return "link.CapacityRate"
	}
	return "?"
}

// TestBlackoutErasesShares: a flow's medium never drops a share; an
// independent per-round share erasure with probability p is the fault
// injector's FaultConfig{Blackout: p, BlackoutRounds: 1}, and it
// swallows that fraction of the shares a flow transmits.
func TestBlackoutErasesShares(t *testing.T) {
	e := link.NewEngine(link.EngineConfig{
		Params:       scenarioParams(),
		MaxBlockBits: 192,
		Shards:       2,
		Seed:         5,
		Faults:       &link.FaultConfig{Blackout: 0.3, BlackoutRounds: 1},
	})
	defer e.Close()
	const flows = 200
	for i := 0; i < flows; i++ {
		e.AddFlow(make([]byte, 66), link.FlowConfig{Channel: channel.NewAWGN(6, int64(i))})
	}
	frames, blacked := 0, 0
	res := e.Drain(0)
	if len(res) != flows {
		t.Fatalf("resolved %d flows, want %d", len(res), flows)
	}
	for _, r := range res {
		if r.Err != nil {
			t.Fatalf("flow %d: %v", r.ID, r.Err)
		}
		frames += r.Stats.Frames
		blacked += r.Stats.Faults.FramesBlackedOut
	}
	if frames < 5000 {
		t.Fatalf("only %d shares transmitted; too few to measure the erasure rate", frames)
	}
	t.Logf("erased %d of %d shares", blacked, frames)
	if got := float64(blacked) / float64(frames); math.Abs(got-0.3) > 0.02 {
		t.Fatalf("erased %d of %d shares (%.3f), want 0.3", blacked, frames, got)
	}
}

// TestScenarioStringMentionsEverything keeps the human-readable summary
// wired to the fields the CLI prints.
func TestScenarioStringMentionsEverything(t *testing.T) {
	s := ScenarioResult{Scenario: "burst", Policy: "tracking", Flows: 4, Delivered: 3,
		Outages: 1, Goodput: 2.5, OutageRate: 0.25, Rounds: 9, Symbols: 1234, MeanStateDB: 15.5}.String()
	for _, want := range []string{"burst", "tracking", "3/4", "2.500", "25%", "1234", "15.5"} {
		if !strings.Contains(s, want) {
			t.Fatalf("summary %q missing %q", s, want)
		}
	}
}
