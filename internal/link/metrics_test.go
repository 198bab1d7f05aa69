package link

import (
	"math/rand"
	"reflect"
	"testing"

	"spinal/internal/channel"
)

// sumCounters adds every integer field of src into dst, recursing into
// nested structs. It is the test's own reflection-driven sum, so a Stats
// counter that Stats.add forgets shows up as a mismatch.
func sumCounters(dst, src reflect.Value) {
	for i := range dst.NumField() {
		switch f := dst.Field(i); f.Kind() {
		case reflect.Int:
			f.SetInt(f.Int() + src.Field(i).Int())
		case reflect.Struct:
			sumCounters(f, src.Field(i))
		}
	}
}

// TestEngineMetricsSumFlowStats: under instant acks, a delayed lossy
// reverse channel, half-duplex accounting, DWFQ with half-duplex, and
// chaos faults, the engine's running totals equal the field-wise sum of
// every resolved flow's Stats, and the flow counts are conserved after
// every Step. Each run includes one flow too short-budgeted to decode,
// so the failed count is exercised too.
func TestEngineMetricsSumFlowStats(t *testing.T) {
	chaos := chaosTestFaults()
	// Each config names the counter its path must move, so a run that
	// never took the path cannot pass vacuously.
	configs := []struct {
		name  string
		set   func(*EngineConfig)
		moved func(Stats) int
	}{
		{"instant", func(*EngineConfig) {}, func(s Stats) int { return s.DecodeAttempts }},
		{"feedback", func(c *EngineConfig) {
			c.Feedback = &FeedbackConfig{DelayRounds: 3, Loss: 0.2}
		}, func(s Stats) int { return s.AcksLost }},
		{"halfduplex", func(c *EngineConfig) {
			c.HalfDuplex = &HalfDuplexConfig{}
		}, func(s Stats) int { return s.AckSymbols }},
		{"dwfq+halfduplex", func(c *EngineConfig) {
			c.Scheduler = &SchedulerConfig{}
			c.HalfDuplex = &HalfDuplexConfig{}
		}, func(s Stats) int { return s.AckSymbols }},
		{"chaos", func(c *EngineConfig) {
			c.Faults = &chaos
			c.Feedback = &FeedbackConfig{DelayRounds: 1}
		}, func(s Stats) int { return min(s.Faults.Frames(), s.Faults.Acks()) }},
	}
	for _, tc := range configs {
		t.Run(tc.name, func(t *testing.T) {
			cfg := engineParams()
			cfg.Seed = 11
			tc.set(&cfg)
			e := NewEngine(cfg)
			rng := rand.New(rand.NewSource(5))
			for i := range 12 {
				e.AddFlow(flowPayload(rng, 1+rng.Intn(60)),
					FlowConfig{Channel: channel.NewAWGN(12, int64(100+i)), Weight: 1 + i%3})
			}
			e.AddFlow(flowPayload(rng, 40), FlowConfig{Channel: channel.NewAWGN(-10, 7), MaxRounds: 2})

			var want Stats
			var delivered, failed, bytes int
			for e.Active() > 0 {
				for _, r := range e.Step() {
					sumCounters(reflect.ValueOf(&want).Elem(), reflect.ValueOf(r.Stats))
					if r.Err == nil {
						delivered++
						bytes += len(r.Datagram)
					} else {
						failed++
					}
				}
				m := e.Metrics()
				if m.Admitted != m.Active+m.Delivered+m.Failed {
					t.Fatalf("admitted %d != active %d + delivered %d + failed %d",
						m.Admitted, m.Active, m.Delivered, m.Failed)
				}
			}
			m := e.Metrics()
			if m.Admitted != 13 || m.Delivered != delivered || m.Failed != failed || failed == 0 {
				t.Fatalf("flow counts: %+v, results delivered %d failed %d", m, delivered, failed)
			}
			if m.BytesDelivered != bytes {
				t.Fatalf("BytesDelivered = %d, results delivered %d bytes", m.BytesDelivered, bytes)
			}
			if m.Totals != want {
				t.Fatalf("totals differ from the summed flow Stats:\n got %+v\nwant %+v", m.Totals, want)
			}
			if cfg.Scheduler != nil {
				if s := m.Scheduler; s.AckSymbolsCharged != int64(want.AckSymbols) ||
					s.SymbolsAdmitted != int64(want.SymbolsSent) || s.DeficitOutstanding != 0 {
					t.Fatalf("scheduler accounting disagrees with the totals: %+v", s)
				}
			} else if m.Scheduler != (SchedulerStats{}) {
				t.Fatalf("round-robin engine reports scheduler accounting: %+v", m.Scheduler)
			}
			if tc.moved(want) == 0 {
				t.Fatalf("the run never took its path: %+v", want)
			}
			if m.DecodersBuilt == 0 {
				t.Fatal("no decoder construction counted")
			}
		})
	}
}
