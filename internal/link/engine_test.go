package link

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"spinal/internal/channel"
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
	defer e.Close()
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
// must arrive intact, and the codec pool must serve all of it from a
// bounded set of reused decoders. Run under -race in CI.
func TestEngineStressManyFlows(t *testing.T) {
	cfg := engineParams()
	cfg.Faults = &FaultConfig{Blackout: 0.3, BlackoutRounds: 1}
	cfg.CheckInvariants = true
	cfg.Seed = 99
	e := NewEngine(cfg)
	defer e.Close()

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

	// Decoder reuse: one block size in play, so the pool needs at most one
	// decoder per shard no matter how many flows ran.
	st := e.PoolStats()
	shards := int64(cfg.Shards)
	if st.DecodersBuilt > shards {
		t.Errorf("pool built %d decoders for %d shards — blocks are not sharing them", st.DecodersBuilt, shards)
	}

	// Steady state (the AllocsPerRun analogue for pooled codecs): a second
	// wave of flows must construct nothing new.
	for i := 0; i < 8; i++ {
		e.AddFlow(flowPayload(rng, 44), FlowConfig{Channel: channel.NewAWGN(15, int64(2000+i))})
	}
	for _, r := range e.Drain(0) {
		if r.Err != nil {
			t.Fatalf("second wave flow %d: %v", r.ID, r.Err)
		}
	}
	st2 := e.PoolStats()
	if st2 != st {
		t.Errorf("second wave built decoders: %+v -> %+v", st, st2)
	}
}

// TestEngineFlowChurn: flows arrive as others finish, over links that
// lose 10% of each flow's shares; the engine must keep multiplexing
// correctly through membership changes.
func TestEngineFlowChurn(t *testing.T) {
	cfg := engineParams()
	cfg.Faults = &FaultConfig{Blackout: 0.1, BlackoutRounds: 1}
	e := NewEngine(cfg)
	defer e.Close()

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
	defer e.Close()
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
	defer e.Close()
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
	defer e.Close()
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
		defer e.Close()
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

// TestShardOfSpreadsBlocks guards the routing hash: the blocks of a
// single flow (a large file over few flows) must spread across the pool,
// not pile onto one shard.
func TestShardOfSpreadsBlocks(t *testing.T) {
	const shards = 8
	for flow := FlowID(0); flow < 4; flow++ {
		seen := make(map[int]bool)
		for b := 0; b < 64; b++ {
			seen[shardOf(flow, b)%shards] = true
		}
		if len(seen) < shards-1 {
			t.Fatalf("flow %d: 64 blocks landed on only %d/%d shards", flow, len(seen), shards)
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
	defer e.Close()
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
		defer e.Close()
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
