package link

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"spinal/internal/channel"
	icode "spinal/internal/code"
	"spinal/internal/core"
)

// engineParams keeps engine tests fast: a narrow beam is plenty at the
// SNRs used here.
func engineParams() EngineConfig {
	return EngineConfig{
		Params:       linkParams(),
		MaxBlockBits: 192, // 22-byte payloads + CRC
		Shards:       4,
	}
}

// flowPayload builds a deterministic datagram of n bytes.
func flowPayload(rng *rand.Rand, n int) []byte {
	b := make([]byte, n)
	rng.Read(b)
	return b
}

func TestEngineSingleFlow(t *testing.T) {
	e := NewEngine(engineParams())
	data := []byte("one flow through the multi-flow engine")
	id := e.AddFlow(data, FlowConfig{Channel: channel.NewAWGN(15, 1)})
	results := e.Drain(0)
	if len(results) != 1 || results[0].ID != id {
		t.Fatalf("got %d results, want 1 for flow %d", len(results), id)
	}
	if results[0].Err != nil {
		t.Fatal(results[0].Err)
	}
	if !bytes.Equal(results[0].Datagram, data) {
		t.Fatal("datagram corrupted")
	}
	if results[0].Stats.Rate <= 0 {
		t.Fatal("no rate recorded")
	}
}

// TestEngineStressManyFlows is the concurrency stress: 36 flows with
// mixed sizes and SNRs over lossy links (the fault injector swallows each
// flow's share of a round with probability 0.3), all in flight at once,
// with the engine's invariants checked after every Step. Every datagram
// must arrive intact, and the decoder slots must serve all of it from a
// bounded set of reused decoders. Run under -race in CI.
func TestEngineStressManyFlows(t *testing.T) {
	cfg := engineParams()
	cfg.Faults = &FaultConfig{Blackout: 0.3, BlackoutRounds: 1}
	cfg.CheckInvariants = true
	cfg.Seed = 99
	e := NewEngine(cfg)

	rng := rand.New(rand.NewSource(7))
	const flows = 36
	want := make(map[FlowID][]byte, flows)
	// Sizes are multiples of the 22-byte block payload so every block is
	// 192 bits and the decoder-reuse bound below is exact.
	sizes := []int{22, 44, 88, 176}
	for i := 0; i < flows; i++ {
		data := flowPayload(rng, sizes[i%len(sizes)])
		snr := []float64{8, 12, 18, 25}[i%4]
		id := e.AddFlow(data, FlowConfig{
			Channel: channel.NewAWGN(snr, int64(1000+i)),
		})
		want[id] = data
	}

	results := e.Drain(0)
	if len(results) != flows {
		t.Fatalf("resolved %d flows, want %d", len(results), flows)
	}
	for _, r := range results {
		if r.Err != nil {
			t.Fatalf("flow %d: %v", r.ID, r.Err)
		}
		if !bytes.Equal(r.Datagram, want[r.ID]) {
			t.Fatalf("flow %d: datagram corrupted", r.ID)
		}
	}

	st := e.Metrics()
	if st.DecodersBuilt == 0 {
		t.Fatal("the first wave built no decoder")
	}

	// Steady state: a second wave of the same block size reuses the slots'
	// decoders. Which slot claims a block depends on goroutine timing, so a
	// slot idle in the first wave may build its first decoder now; the
	// bound is one decoder per slot over both waves.
	for i := 0; i < 8; i++ {
		e.AddFlow(flowPayload(rng, 44), FlowConfig{Channel: channel.NewAWGN(15, int64(2000+i))})
	}
	for _, r := range e.Drain(0) {
		if r.Err != nil {
			t.Fatalf("second wave flow %d: %v", r.ID, r.Err)
		}
	}
	if built, slots := e.Metrics().DecodersBuilt, int64(cfg.Shards); built > slots {
		t.Errorf("built %d decoders for %d slots and one block size — blocks are not sharing them", built, slots)
	}
}

// TestEngineSlotsRoundTrip: 64 noiseless flows of 24-, 48- and 96-bit
// blocks, for the spinal code and Raptor, through an engine with 4
// decoder slots. Every flow must round-trip through the slots' cached
// decoders, and each slot builds at most one decoder per block size.
func TestEngineSlotsRoundTrip(t *testing.T) {
	p := core.Params{K: 4, B: 16, D: 1, C: 6, Tail: 2, Ways: 8}
	for _, c := range []icode.Code{icode.Spinal(p), icode.Raptor()} {
		const slots = 4
		e := NewEngine(EngineConfig{Code: c, Shards: slots})
		sizes := []int{1, 4, 10} // payload bytes: 24-, 48- and 96-bit blocks
		want := make(map[FlowID][]byte)
		for j := 0; j < 64; j++ {
			msg := make([]byte, sizes[j%len(sizes)])
			for i := range msg {
				msg[i] = byte(j*31 + i*7)
			}
			want[e.AddFlow(msg, FlowConfig{})] = msg
		}
		res := e.Drain(0)
		if len(res) != len(want) {
			t.Fatalf("%s: resolved %d flows, want %d", c.Name(), len(res), len(want))
		}
		for _, r := range res {
			if r.Err != nil || !bytes.Equal(r.Datagram, want[r.ID]) {
				t.Fatalf("%s: flow %d did not round-trip: %v", c.Name(), r.ID, r.Err)
			}
		}
		maxDec := int64(slots * len(sizes))
		if built := e.Metrics().DecodersBuilt; built == 0 || built > maxDec {
			t.Errorf("%s: built %d decoders, want 1..%d (slots × block sizes)", c.Name(), built, maxDec)
		}
	}
}

// TestEngineFlowChurn: flows arrive as others finish, over links that
// lose 10% of each flow's shares; the engine must keep multiplexing
// correctly through membership changes.
func TestEngineFlowChurn(t *testing.T) {
	cfg := engineParams()
	cfg.Faults = &FaultConfig{Blackout: 0.1, BlackoutRounds: 1}
	e := NewEngine(cfg)

	rng := rand.New(rand.NewSource(31))
	const total = 24
	const concurrent = 6
	want := make(map[FlowID][]byte, total)
	admitted := 0
	admit := func() {
		data := flowPayload(rng, 20+rng.Intn(80)) // ragged sizes: mixed block lengths
		id := e.AddFlow(data, FlowConfig{
			Channel: channel.NewAWGN(10+float64(admitted%3)*5, int64(admitted)),
		})
		want[id] = data
		admitted++
	}
	for i := 0; i < concurrent; i++ {
		admit()
	}
	delivered := 0
	for delivered < total {
		for _, r := range e.Step() {
			if r.Err != nil {
				t.Fatalf("flow %d: %v", r.ID, r.Err)
			}
			if !bytes.Equal(r.Datagram, want[r.ID]) {
				t.Fatalf("flow %d: datagram corrupted", r.ID)
			}
			delivered++
			if admitted < total {
				admit()
			}
		}
	}
}

// TestEngineBackpressure: a frame budget far below the per-round demand
// must still complete every flow — excluded flows wait instead of
// starving or spinning.
func TestEngineBackpressure(t *testing.T) {
	cfg := engineParams()
	cfg.FrameSymbols = 64 // a handful of batches per shared frame
	e := NewEngine(cfg)
	rng := rand.New(rand.NewSource(5))
	want := make(map[FlowID][]byte)
	for i := 0; i < 8; i++ {
		data := flowPayload(rng, 66)
		want[e.AddFlow(data, FlowConfig{Channel: channel.NewAWGN(15, int64(i))})] = data
	}
	results := e.Drain(0)
	if len(results) != 8 {
		t.Fatalf("resolved %d flows, want 8", len(results))
	}
	for _, r := range results {
		if r.Err != nil {
			t.Fatalf("flow %d: %v", r.ID, r.Err)
		}
		if !bytes.Equal(r.Datagram, want[r.ID]) {
			t.Fatalf("flow %d corrupted", r.ID)
		}
	}
}

// TestEngineGiveUp: a hopeless channel exhausts the flow budget with a
// typed error instead of spinning forever.
func TestEngineGiveUp(t *testing.T) {
	cfg := engineParams()
	e := NewEngine(cfg)
	e.AddFlow(flowPayload(rand.New(rand.NewSource(1)), 40), FlowConfig{
		Channel:   channel.NewAWGN(-25, 3),
		MaxRounds: 10,
	})
	results := e.Drain(0)
	if len(results) != 1 {
		t.Fatalf("resolved %d flows, want 1", len(results))
	}
	if !errors.Is(results[0].Err, ErrFlowBudget) {
		t.Fatalf("err = %v, want ErrFlowBudget", results[0].Err)
	}
}

// TestEngineZeroLengthFlow: the degenerate nil datagram flows through the
// engine as a single CRC-only block.
func TestEngineZeroLengthFlow(t *testing.T) {
	e := NewEngine(engineParams())
	e.AddFlow(nil, FlowConfig{Channel: channel.NewAWGN(15, 8)})
	results := e.Drain(0)
	if len(results) != 1 {
		t.Fatalf("resolved %d flows, want 1", len(results))
	}
	if results[0].Err != nil {
		t.Fatal(results[0].Err)
	}
	if len(results[0].Datagram) != 0 {
		t.Fatalf("zero-length flow decoded to %d bytes", len(results[0].Datagram))
	}
}

// TestEngineCapacityRate: the capacity-seeded rate policy resolves a flow
// in far fewer scheduling rounds than one-subpass-at-a-time pacing, at
// comparable symbol cost — the §5 schedule as a rate-adaptation hook.
func TestEngineCapacityRate(t *testing.T) {
	run := func(rate RatePolicy) Stats {
		e := NewEngine(engineParams())
		data := flowPayload(rand.New(rand.NewSource(17)), 88)
		e.AddFlow(data, FlowConfig{Channel: channel.NewAWGN(12, 21), Rate: rate})
		res := e.Drain(0)
		if len(res) != 1 || res[0].Err != nil {
			t.Fatalf("rate %T: %+v", rate, res)
		}
		if !bytes.Equal(res[0].Datagram, data) {
			t.Fatalf("rate %T: corrupted", rate)
		}
		return res[0].Stats
	}
	fixed := run(FixedRate(1))
	burst := run(CapacityRate{SNREstimateDB: 12})
	if burst.Frames >= fixed.Frames {
		t.Errorf("capacity pacing used %d rounds, fixed used %d — burst should need fewer", burst.Frames, fixed.Frames)
	}
	if burst.SymbolsSent > 3*fixed.SymbolsSent {
		t.Errorf("capacity pacing spent %d symbols vs %d fixed — wildly overshooting", burst.SymbolsSent, fixed.SymbolsSent)
	}
}

// TestEngineResultsIndependentOfWorkers: a fan-out's goroutines claim a
// round's items in whatever order they get to them, so which goroutine
// and decoder slot encodes or decodes a block varies from run to run; a
// flow's outcome must not.
// The same flows — block sizes from 48 to 528 bits, one 64-byte flow on
// the B=256 beam ladder, frame faults through the wire codec — run
// through engines with 1, 2 and 4 workers, and must resolve in the same
// order with byte-identical datagrams and equal Stats.
func TestEngineResultsIndependentOfWorkers(t *testing.T) {
	run := func(shards int) []FlowResult {
		e := NewEngine(EngineConfig{
			Params:       paperParams(),
			MaxBlockBits: 528,
			Shards:       shards,
			Seed:         29,
			Faults: &FaultConfig{FrameReorder: 0.3, FrameDup: 0.2, FrameTruncate: 0.1,
				FrameCorrupt: 0.1, Blackout: 0.1, BlackoutRounds: 1},
			CheckInvariants: true,
		})
		rng := rand.New(rand.NewSource(31))
		for i, n := range []int{64, 4, 16, 40, 100, 9, 130, 22, 52, 1, 75, 33} {
			// The estimate is right for a third of the flows, and high or
			// low for the rest, so some blocks take several attempts.
			e.AddFlow(flowPayload(rng, n), FlowConfig{
				Channel: channel.NewAWGN([]float64{10, 7, 13}[i%3], int64(400+i)),
				Rate:    CapacityRate{SNREstimateDB: 10},
			})
		}
		return e.Drain(0)
	}
	want := run(1)
	if len(want) != 12 {
		t.Fatalf("resolved %d flows, want 12", len(want))
	}
	for _, r := range want {
		if r.Err != nil {
			t.Fatalf("flow %d failed: %v", r.ID, r.Err)
		}
		if r.ID == 0 && r.Stats.NarrowAttempts == 0 {
			t.Fatalf("the 528-bit flow did not run the beam ladder: %+v", r.Stats)
		}
	}
	var blocks, attempts, faults int
	for _, r := range want {
		f := r.Stats.Faults
		blocks += r.Stats.Blocks
		attempts += r.Stats.DecodeAttempts
		faults += f.FramesReordered + f.FramesDuplicated + f.FramesTruncated + f.FramesCorrupted + f.FramesBlackedOut
	}
	t.Logf("%d blocks, %d decode attempts, %d frame faults", blocks, attempts, faults)
	for _, shards := range []int{2, 4} {
		got := run(shards)
		if !reflect.DeepEqual(got, want) {
			for i := range min(len(got), len(want)) {
				if !reflect.DeepEqual(got[i], want[i]) {
					t.Fatalf("%d workers: result %d differs from 1 worker's:\n got %+v\nwant %+v", shards, i, got[i], want[i])
				}
			}
			t.Fatalf("%d workers resolved %d flows, 1 worker %d", shards, len(got), len(want))
		}
	}
}

// TestEngineAttemptsAfterOverflow: a batch that overflows the block's
// accumulator still leaves maxAccumSymbols symbols stored, and the
// receiver must attempt the block over them. A 48-bit block paced at
// 45 000 subpasses a round sends about 73 000 noiseless symbols at once,
// so the first batch fills the accumulator and reports ErrBlockFull;
// every later batch is rejected whole. The flow must still deliver in
// its first round instead of running out its budget.
func TestEngineAttemptsAfterOverflow(t *testing.T) {
	cfg := engineParams()
	cfg.MaxBlockBits = 64
	cfg.FrameSymbols = 1 << 30
	cfg.MaxRounds = 4
	e := NewEngine(cfg)
	data := []byte("spin")
	e.AddFlow(data, FlowConfig{Rate: FixedRate(45000)})
	res := e.Drain(0)
	if len(res) != 1 {
		t.Fatalf("resolved %d flows, want 1", len(res))
	}
	r := res[0]
	if r.Err != nil {
		t.Fatalf("err = %v (overflowed %d symbols, rejected %d batches)",
			r.Err, r.Stats.SymbolsOverflowed, r.Stats.BatchesRejected)
	}
	if !bytes.Equal(r.Datagram, data) {
		t.Fatal("datagram corrupted")
	}
	if r.Stats.Frames != 1 || r.Stats.BatchesRejected != 1 || r.Stats.SymbolsOverflowed == 0 {
		t.Fatalf("want one overflowing round, got frames=%d rejected=%d overflowed=%d",
			r.Stats.Frames, r.Stats.BatchesRejected, r.Stats.SymbolsOverflowed)
	}
}

// TestEngineZeroFaultsMatchesFaultFree is the differential fence for the
// decode stage: a fault injector with every rate at zero sends each
// round's share through the wire codec and regroups it, and must yield
// exactly the results of direct delivery under every feedback and
// scheduler mode.
func TestEngineZeroFaultsMatchesFaultFree(t *testing.T) {
	modes := []struct {
		name string
		cfg  EngineConfig
	}{
		{"instant", EngineConfig{}},
		{"instant+halfduplex", EngineConfig{HalfDuplex: &HalfDuplexConfig{}}},
		{"feedback", EngineConfig{Feedback: &FeedbackConfig{DelayRounds: 3, Loss: 0.2}}},
		{"dwfq+halfduplex", EngineConfig{Scheduler: &SchedulerConfig{}, HalfDuplex: &HalfDuplexConfig{}}},
	}
	run := func(cfg EngineConfig, faults *FaultConfig) []FlowResult {
		cfg.Params = linkParams()
		cfg.MaxBlockBits = 192
		cfg.FrameSymbols = 600
		cfg.Shards = 4
		cfg.Seed = 11
		cfg.Faults = faults
		cfg.CheckInvariants = true
		e := NewEngine(cfg)
		rng := rand.New(rand.NewSource(23))
		for i := 0; i < 12; i++ {
			snr := []float64{6, 10, 14}[i%3]
			e.AddFlow(flowPayload(rng, 10+rng.Intn(80)), FlowConfig{
				Channel: channel.NewAWGN(snr, int64(300+i)),
				Rate:    CapacityRate{SNREstimateDB: snr},
			})
		}
		res := e.Drain(0)
		for i := range res {
			res[i].Stats.Faults = FaultStats{}
		}
		return res
	}
	for _, m := range modes {
		t.Run(m.name, func(t *testing.T) {
			direct := run(m.cfg, nil)
			wired := run(m.cfg, &FaultConfig{})
			if len(direct) != 12 {
				t.Fatalf("resolved %d flows, want 12", len(direct))
			}
			if !reflect.DeepEqual(direct, wired) {
				for i := range direct {
					if i < len(wired) && !reflect.DeepEqual(direct[i], wired[i]) {
						t.Fatalf("result %d differs:\n direct %+v\n  wired %+v", i, direct[i], wired[i])
					}
				}
				t.Fatalf("results differ: %d direct, %d wired", len(direct), len(wired))
			}
		})
	}
}
