package link

import (
	"bytes"
	"errors"
	"math/rand"
	"sort"
	"testing"

	"spinal/internal/channel"
)

// jainIndex is Jain's fairness index over per-flow throughputs:
// (Σx)² / (n·Σx²) — 1.0 when every flow got the same, 1/n when one flow
// got everything.
func jainIndex(x []float64) float64 {
	var s, s2 float64
	for _, v := range x {
		s += v
		s2 += v * v
	}
	if s2 == 0 {
		return 0
	}
	n := float64(len(x))
	return s * s / (n * s2)
}

// percentile returns the p-quantile (0..1) of xs by nearest-rank.
func percentile(xs []int, p float64) int {
	s := append([]int(nil), xs...)
	sort.Ints(s)
	k := int(p*float64(len(s))+0.5) - 1
	if k < 0 {
		k = 0
	}
	if k >= len(s) {
		k = len(s) - 1
	}
	return s[k]
}

// fairnessRun is one mixed-traffic drain: per-flow completion rounds,
// throughputs (bits per aged round), and which flows were elephants.
type fairnessRun struct {
	rounds     []int
	throughput []float64
	elephant   []bool
}

func (r fairnessRun) miceRounds() []int {
	var out []int
	for i, e := range r.elephant {
		if !e {
			out = append(out, r.rounds[i])
		}
	}
	return out
}

// runFairnessMix drains a 4-elephant/28-mice style mix (every eighth
// flow is an elephant) through one engine and reports per-flow
// completion latency and throughput. All flows are admitted before the
// first round, so completion round == sojourn time.
func runFairnessMix(t *testing.T, sched *SchedulerConfig, flows, every int, seed int64) fairnessRun {
	t.Helper()
	eng := NewEngine(EngineConfig{
		Params:          linkParams(),
		MaxBlockBits:    192,
		Shards:          2,
		FrameSymbols:    2048,
		Seed:            seed,
		MaxRounds:       1 << 14,
		Scheduler:       sched,
		CheckInvariants: true,
	})
	rng := rand.New(rand.NewSource(seed))
	run := fairnessRun{
		rounds:     make([]int, flows),
		throughput: make([]float64, flows),
		elephant:   make([]bool, flows),
	}
	payloads := make([][]byte, flows)
	for i := 0; i < flows; i++ {
		size := 48 + rng.Intn(48) // mouse
		if every > 0 && i%every == 0 {
			size = 768 + rng.Intn(512) // elephant
			run.elephant[i] = true
		}
		payloads[i] = make([]byte, size)
		rng.Read(payloads[i])
		id := eng.AddFlow(payloads[i], FlowConfig{
			Channel: channel.NewAWGN(10, seed+int64(i)*977),
			Rate:    CapacityRate{SNREstimateDB: 10},
		})
		if int(id) != i {
			t.Fatalf("flow id %d for admission %d", id, i)
		}
	}
	for round := 1; eng.Active() > 0; round++ {
		if round > 1<<15 {
			t.Fatal("fairness mix did not drain")
		}
		for _, r := range eng.Step() {
			if r.Err != nil {
				t.Fatalf("flow %d: %v", r.ID, r.Err)
			}
			if !bytes.Equal(r.Datagram, payloads[r.ID]) {
				t.Fatalf("flow %d: datagram corrupted", r.ID)
			}
			run.rounds[r.ID] = round
			run.throughput[r.ID] = float64(8*len(payloads[r.ID])) / float64(round)
		}
	}
	return run
}

// TestDWFQFairnessIndex is the headline fairness property: with equal
// weights across 32 mixed-size flows (4 elephants among 28 mice), DWFQ
// holds Jain's index ≥ 0.95 and strictly beats round-robin — whose
// admission order lets each elephant's capacity-sized burst monopolize
// whole frames — on both the index and the mice's p99 sojourn.
func TestDWFQFairnessIndex(t *testing.T) {
	// Quantum 64 = the 2048-symbol frame budget split over 32 flows: each
	// flow's credit rate is exactly its processor-sharing fair share, so
	// completion time scales with demand and per-sojourn throughput
	// equalizes across sizes.
	const seed = 20260807
	rr := runFairnessMix(t, nil, 32, 8, seed)
	dw := runFairnessMix(t, &SchedulerConfig{Quantum: 64}, 32, 8, seed)

	jRR, jDW := jainIndex(rr.throughput), jainIndex(dw.throughput)
	t.Logf("jain: rr=%.4f dwfq=%.4f", jRR, jDW)
	if jDW < 0.95 {
		t.Errorf("DWFQ Jain index = %.4f, want ≥ 0.95", jDW)
	}
	if jDW <= jRR {
		t.Errorf("DWFQ Jain %.4f not better than round-robin %.4f", jDW, jRR)
	}
	p99RR := percentile(rr.miceRounds(), 0.99)
	p99DW := percentile(dw.miceRounds(), 0.99)
	t.Logf("mice p99 rounds: rr=%d dwfq=%d", p99RR, p99DW)
	if p99DW >= p99RR {
		t.Errorf("DWFQ mice p99 = %d rounds, want < round-robin %d", p99DW, p99RR)
	}
}

// TestDWFQWeightShares: under contention, a weight-4 flow finishes ahead
// of an identical weight-1 flow because it earns four times the symbol
// credit per round.
func TestDWFQWeightShares(t *testing.T) {
	eng := NewEngine(EngineConfig{
		Params:          linkParams(),
		MaxBlockBits:    192,
		FrameSymbols:    512,
		Seed:            7,
		MaxRounds:       1 << 14,
		Scheduler:       &SchedulerConfig{Quantum: 64},
		CheckInvariants: true,
	})
	rng := rand.New(rand.NewSource(7))
	payload := make([]byte, 512)
	rng.Read(payload)
	heavy := eng.AddFlow(payload, FlowConfig{
		Channel: channel.NewAWGN(10, 11),
		Rate:    CapacityRate{SNREstimateDB: 10},
		Weight:  4,
	})
	light := eng.AddFlow(append([]byte(nil), payload...), FlowConfig{
		Channel: channel.NewAWGN(10, 13),
		Rate:    CapacityRate{SNREstimateDB: 10},
		Weight:  1,
	})
	done := map[FlowID]int{}
	for round := 1; eng.Active() > 0; round++ {
		if round > 1<<15 {
			t.Fatal("weighted pair did not drain")
		}
		for _, r := range eng.Step() {
			if r.Err != nil {
				t.Fatalf("flow %d: %v", r.ID, r.Err)
			}
			done[r.ID] = round
		}
	}
	t.Logf("completion rounds: weight4=%d weight1=%d", done[heavy], done[light])
	if done[heavy] >= done[light] {
		t.Errorf("weight-4 flow finished at round %d, not before weight-1 at %d",
			done[heavy], done[light])
	}
	st := eng.Metrics().Scheduler
	if st.QuantaGranted <= 0 || st.SymbolsAdmitted <= 0 {
		t.Errorf("scheduler stats not accounted: %+v", st)
	}
}

// TestDWFQPriorityClasses: a higher-priority flow is served strictly
// first each round, so under a tight frame budget it completes no later
// than an identical lower-priority flow.
func TestDWFQPriorityClasses(t *testing.T) {
	eng := NewEngine(EngineConfig{
		Params:          linkParams(),
		MaxBlockBits:    192,
		FrameSymbols:    384,
		Seed:            21,
		MaxRounds:       1 << 14,
		Scheduler:       &SchedulerConfig{},
		CheckInvariants: true,
	})
	rng := rand.New(rand.NewSource(21))
	payload := make([]byte, 384)
	rng.Read(payload)
	lo := eng.AddFlow(payload, FlowConfig{
		Channel: channel.NewAWGN(10, 31),
		Rate:    CapacityRate{SNREstimateDB: 10},
	})
	hi := eng.AddFlow(append([]byte(nil), payload...), FlowConfig{
		Channel:  channel.NewAWGN(10, 37),
		Rate:     CapacityRate{SNREstimateDB: 10},
		Priority: 1,
	})
	done := map[FlowID]int{}
	for round := 1; eng.Active() > 0; round++ {
		if round > 1<<15 {
			t.Fatal("priority pair did not drain")
		}
		for _, r := range eng.Step() {
			if r.Err != nil {
				t.Fatalf("flow %d: %v", r.ID, r.Err)
			}
			done[r.ID] = round
		}
	}
	if done[hi] > done[lo] {
		t.Errorf("priority-1 flow finished at round %d, after priority-0 at %d",
			done[hi], done[lo])
	}
}

// TestDWFQDeadline: a flow whose deadline cannot be met on a hopeless
// channel resolves with ErrDeadline at its deadline round and is counted
// in SchedulerStats.DeadlineMisses; a flow with slack completes.
func TestDWFQDeadline(t *testing.T) {
	eng := NewEngine(EngineConfig{
		Params:          linkParams(),
		MaxBlockBits:    192,
		Seed:            5,
		Scheduler:       &SchedulerConfig{},
		CheckInvariants: true,
	})
	data := []byte("deadline-bound datagram")
	doomed := eng.AddFlow(data, FlowConfig{
		Channel:  channel.NewAWGN(-10, 41), // hopeless SNR
		Deadline: 4,
	})
	easy := eng.AddFlow(data, FlowConfig{
		Channel:  channel.NewAWGN(15, 43),
		Rate:     CapacityRate{SNREstimateDB: 15},
		Deadline: 256,
	})
	var gotDoomed, gotEasy bool
	for round := 1; eng.Active() > 0 && round <= 512; round++ {
		for _, r := range eng.Step() {
			switch r.ID {
			case doomed:
				gotDoomed = true
				if !errors.Is(r.Err, ErrDeadline) {
					t.Errorf("doomed flow resolved with %v, want ErrDeadline", r.Err)
				}
			case easy:
				gotEasy = true
				if r.Err != nil {
					t.Errorf("easy flow resolved with %v, want success", r.Err)
				}
			}
		}
	}
	if !gotDoomed || !gotEasy {
		t.Fatalf("flows unresolved: doomed=%v easy=%v", gotDoomed, gotEasy)
	}
	if n := eng.Metrics().Scheduler.DeadlineMisses; n != 1 {
		t.Errorf("DeadlineMisses = %d, want 1", n)
	}
}

// TestDWFQHalfDuplexCharge: under half-duplex accounting the scheduler
// debits ack airtime from the causing flow's credit, and the engine
// still delivers intact.
func TestDWFQHalfDuplexCharge(t *testing.T) {
	eng := NewEngine(EngineConfig{
		Params:          linkParams(),
		MaxBlockBits:    192,
		Seed:            9,
		Scheduler:       &SchedulerConfig{},
		HalfDuplex:      &HalfDuplexConfig{},
		Feedback:        &FeedbackConfig{DelayRounds: 2},
		CheckInvariants: true,
	})
	rng := rand.New(rand.NewSource(9))
	payload := make([]byte, 200)
	rng.Read(payload)
	eng.AddFlow(payload, FlowConfig{
		Channel: channel.NewAWGN(12, 51),
		Rate:    CapacityRate{SNREstimateDB: 12},
	})
	results := eng.Drain(0)
	if len(results) != 1 || results[0].Err != nil {
		t.Fatalf("drain: %+v", results)
	}
	if !bytes.Equal(results[0].Datagram, payload) {
		t.Fatal("datagram corrupted")
	}
	if results[0].Stats.AckSymbols <= 0 {
		t.Error("no ack airtime recorded under half-duplex")
	}
	if n := eng.Metrics().Scheduler.AckSymbolsCharged; n <= 0 {
		t.Errorf("AckSymbolsCharged = %d, want > 0", n)
	}
}
