package sim

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// -update regenerates the golden scenario outcomes:
//
//	go test ./internal/sim -run TestScenarioGolden -update
var update = flag.Bool("update", false, "rewrite golden scenario outcome files")

const goldenPath = "testdata/scenarios.golden.json"

// goldenConfigs pins the deterministic scenario matrix: two checked-in
// SNR traces, the bursty Markov channel, and the two ARQ feedback
// impairments (delayed acks, lossy acks — retransmission and ack-loss
// counts are part of the pinned outcome), across the three rate-policy
// families. Every outcome — messages delivered, symbols spent, rounds,
// goodput — must reproduce byte for byte.
func goldenConfigs() []ScenarioConfig {
	var cfgs []ScenarioConfig
	for _, sc := range []string{
		"trace:../channel/testdata/stepdown.trace",
		"trace:../channel/testdata/fade.trace",
		"burst",
		"feedback-delay",
		"feedback-loss",
	} {
		for _, pol := range []string{"fixed", "capacity", "tracking"} {
			cfg := ScenarioConfig{
				Params:       multiFlowParams(),
				Scenario:     sc,
				Policy:       pol,
				Flows:        5,
				Concurrency:  3,
				MinBytes:     40,
				MaxBytes:     90,
				MaxRounds:    48,
				MaxBlockBits: 192,
				Shards:       2,
				Seed:         20260730,
			}
			if strings.HasPrefix(sc, "feedback-") {
				// ARQ epochs are an RTT long; give the deadline headroom
				// so the goldens pin steady behaviour, not outage noise.
				cfg.MaxRounds = 96
			}
			cfgs = append(cfgs, cfg)
		}
	}
	// Half-duplex accounting rides the same feedback scenario once: the
	// pinned outcome adds ack_symbols and a goodput whose denominator
	// includes them — the forward trajectory is identical to the
	// feedback-delay/tracking row above (accounting is observational).
	hd := cfgs[len(cfgs)-4] // feedback-delay / tracking
	if hd.Scenario != "feedback-delay" || hd.Policy != "tracking" {
		panic("golden matrix order changed; re-anchor the half-duplex config")
	}
	hd.HalfDuplex = true
	cfgs = append(cfgs, hd)
	// The chaos scenarios pin the adversarial fault mix — including the
	// injector's fault counters and the receivers' rejection/dedup
	// tallies, so a drift in fault scheduling or hardening behaviour is
	// as loud as a goodput drift. One policy each keeps the runtime sane;
	// the soak test covers the parameter space.
	for _, sc := range []string{"chaos", "chaos-feedback"} {
		cfgs = append(cfgs, ScenarioConfig{
			Params:       multiFlowParams(),
			Scenario:     sc,
			Policy:       "tracking",
			Flows:        5,
			Concurrency:  3,
			MinBytes:     40,
			MaxBytes:     90,
			MaxRounds:    96,
			MaxBlockBits: 192,
			Shards:       2,
			Seed:         20260730,
		})
	}
	// The bake-off rows: the same bursty channel, once per channel code
	// behind the Code interface (spinal routed through the interface too —
	// its row must reproduce the native burst numbers), plus one
	// feedback-impaired row per rate-adapting baseline so the ARQ
	// machinery is pinned over a generic code as well. Appended after
	// every pre-existing config so the legacy golden entries stay
	// byte-identical.
	for _, code := range []string{"spinal", "raptor", "strider", "turbo", "ldpc"} {
		cfgs = append(cfgs, ScenarioConfig{
			Params:       multiFlowParams(),
			Code:         code,
			Scenario:     "burst",
			Policy:       "capacity",
			Flows:        5,
			Concurrency:  3,
			MinBytes:     40,
			MaxBytes:     90,
			MaxRounds:    96,
			MaxBlockBits: 192,
			Shards:       2,
			Seed:         20260730,
		})
	}
	for _, code := range []string{"raptor", "ldpc:1/2"} {
		cfgs = append(cfgs, ScenarioConfig{
			Params:       multiFlowParams(),
			Code:         code,
			Scenario:     "feedback-delay",
			Policy:       "tracking",
			Flows:        5,
			Concurrency:  3,
			MinBytes:     40,
			MaxBytes:     90,
			MaxRounds:    96,
			MaxBlockBits: 192,
			Shards:       2,
			Seed:         20260730,
		})
	}
	// The scheduler rows: the same 32-flow bimodal mice-elephants mix
	// under round-robin and under DWFQ at the processor-sharing quantum
	// (FrameSymbols/Flows), pinning Jain's index and the mice latency
	// percentiles for both — the fairness gap itself is a golden outcome.
	// Appended after every pre-existing config so the legacy golden
	// entries stay byte-identical.
	for _, sched := range []string{"rr", "dwfq"} {
		cfgs = append(cfgs, ScenarioConfig{
			Params:           multiFlowParams(),
			Scenario:         "mice-elephants",
			Policy:           "capacity:12",
			Flows:            32,
			Concurrency:      32,
			MaxRounds:        1 << 12,
			MaxBlockBits:     192,
			FrameSymbols:     2048,
			Shards:           2,
			Seed:             20260807,
			Scheduler:        sched,
			SchedulerQuantum: 64, // 2048 frame symbols / 32 flows
		})
	}
	// The transport row: one windowed fetch through 4-round-delayed
	// 20%-lossy feedback, pinning the final SRTT estimate and the peak
	// window alongside the airtime totals.
	cfgs = append(cfgs, ScenarioConfig{
		Params:       multiFlowParams(),
		Scenario:     "fetch-cubic",
		MaxBytes:     16 << 10,
		MaxBlockBits: 192,
		FrameSymbols: 1024,
		Shards:       2,
		Seed:         20260807,
	})
	return cfgs
}

// TestScenarioCodeSpinalEquivalence pins the zero-cost-unwrap contract:
// a run routed through the Code interface with the spinal spec must
// reproduce the native run's outcome exactly (only the Code label may
// differ).
func TestScenarioCodeSpinalEquivalence(t *testing.T) {
	cfg := ScenarioConfig{
		Params:       multiFlowParams(),
		Scenario:     "burst",
		Policy:       "capacity",
		Flows:        3,
		Concurrency:  2,
		MinBytes:     40,
		MaxBytes:     90,
		MaxRounds:    48,
		MaxBlockBits: 192,
		Shards:       2,
		Seed:         20260730,
	}
	native, err := MeasureScenario(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Code = "spinal"
	routed, err := MeasureScenario(cfg)
	if err != nil {
		t.Fatal(err)
	}
	routed.Code = ""
	if native != routed {
		t.Fatalf("spinal routed through the Code interface drifted from native:\nnative: %+v\nrouted: %+v", native, routed)
	}
}

func TestScenarioGolden(t *testing.T) {
	var results []ScenarioResult
	for _, cfg := range goldenConfigs() {
		res, err := MeasureScenario(cfg)
		if err != nil {
			t.Fatalf("%s/%s: %v", cfg.Scenario, cfg.Policy, err)
		}
		results = append(results, res)
	}
	got, err := json.MarshalIndent(results, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')

	if *update {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d scenarios)", goldenPath, len(results))
		return
	}

	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (run with -update to create the golden file)", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("scenario outcomes drifted from %s (run with -update if the change is intended)\n--- got ---\n%s\n--- want ---\n%s",
			goldenPath, got, want)
	}
}
