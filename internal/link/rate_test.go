package link

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"testing"

	"spinal/internal/channel"
)

// TestCapacityPolicyFirstBurst: the capacity rate policy (CapacityRate)
// opens a block with one burst to the estimated decoding point, then
// trickles smaller increments.
func TestCapacityPolicyFirstBurst(t *testing.T) {
	p := CapacityRate{SNREstimateDB: 10}
	// 1024-bit block, 9 symbols/subpass, nothing sent: the first burst
	// should cover ≈ 1024/(0.8·3.46) ≈ 370 symbols ≈ 42 subpasses.
	got := p.SubpassBudget(1024, 9, 0)
	if got < 30 || got > 55 {
		t.Fatalf("first burst %d subpasses, want ≈42", got)
	}
	// Past the target, bursts shrink to the growth increment.
	inc := p.SubpassBudget(1024, 9, 400)
	if inc >= got || inc < 1 {
		t.Fatalf("increment burst %d not smaller than first %d", inc, got)
	}
}

// TestCapacityPolicyLowSNRClamp: a hopeless estimate still sends.
func TestCapacityPolicyLowSNRClamp(t *testing.T) {
	p := CapacityRate{SNREstimateDB: -30}
	if got := p.SubpassBudget(100, 10, 0); got < 1 {
		t.Fatalf("burst %d at very low SNR", got)
	}
}

// TestPolicyWithStaleEstimate: a CapacityRate estimate 10 dB above the
// channel, on a half-duplex link, must still deliver the datagram
// intact — the burst undershoots and the trickle rounds make it up.
func TestPolicyWithStaleEstimate(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	data := make([]byte, 200)
	rng.Read(data)
	r := engineRun(t, EngineConfig{HalfDuplex: &HalfDuplexConfig{}, MaxRounds: 10000},
		FlowConfig{Channel: channel.NewAWGN(5, 25), Rate: CapacityRate{SNREstimateDB: 15}}, data)
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	if !bytes.Equal(r.Datagram, data) {
		t.Fatal("datagram corrupted under stale estimate")
	}
}

// TestTrackingRateBudgetContract is the backpressure property: for any
// block geometry and history, the symbols a TrackingRate requests in one
// round never exceed MaxRoundSymbols, and the request is always ≥ 1
// subpass (starvation-free).
func TestTrackingRateBudgetContract(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 5000; trial++ {
		tr := NewTrackingRate(-15 + rng.Float64()*60)
		tr.MaxRoundSymbols = 1 + rng.Intn(8192)
		// Walk the estimate around with random observations first.
		for i := 0; i < rng.Intn(8); i++ {
			tr.ObserveDecode(1+rng.Intn(2048), 1+rng.Intn(20000))
		}
		blockBits := 1 + rng.Intn(4096)
		sub := 1 + rng.Intn(64)
		sent := rng.Intn(100000)
		n := tr.SubpassBudget(blockBits, sub, sent)
		if n < 1 {
			t.Fatalf("budget %d < 1 (bits=%d sub=%d sent=%d)", n, blockBits, sub, sent)
		}
		if n > 1 && n*sub > tr.MaxRoundSymbols {
			t.Fatalf("budget %d×%d = %d symbols exceeds cap %d",
				n, sub, n*sub, tr.MaxRoundSymbols)
		}
	}
}

// TestTrackingRateAdaptsDown: blocks that drag far past their burst pull
// the SNR estimate down; blocks decoding at the burst probe it up.
func TestTrackingRateAdaptsDown(t *testing.T) {
	tr := NewTrackingRate(20)
	for i := 0; i < 10; i++ {
		tr.ObserveDecode(192, 300) // ≈0.64 b/sym ⇒ channel near 0 dB
	}
	if tr.EstimateDB() > 5 {
		t.Fatalf("estimate stuck at %.1f dB after slow decodes", tr.EstimateDB())
	}

	up := NewTrackingRate(5)
	// Decoding right at the 5 dB burst size repeatedly ⇒ probe upward.
	for i := 0; i < 10; i++ {
		up.ObserveDecode(192, 93) // ≈2.06 b/sym ≈ 0.8·C(5 dB)
	}
	if up.EstimateDB() <= 5 {
		t.Fatalf("estimate did not probe up: %.1f dB", up.EstimateDB())
	}
}

// TestTrackingRateIgnoresDegenerateObservations: zero/negative inputs
// must not move the estimate or divide by zero.
func TestTrackingRateIgnoresDegenerateObservations(t *testing.T) {
	tr := NewTrackingRate(12)
	tr.ObserveDecode(0, 100)
	tr.ObserveDecode(-5, 100)
	tr.ObserveDecode(192, 0)
	tr.ObserveDecode(192, -3)
	if tr.EstimateDB() != 12 {
		t.Fatalf("degenerate observations moved the estimate to %.1f", tr.EstimateDB())
	}
}

// TestNonFiniteSNREstimates: a NaN or −Inf estimate paces as −10 dB and
// +Inf as 40 dB (TrackingRate's default bounds), for CapacityRate and
// TrackingRate alike, and a NaN starting estimate still tracks.
func TestNonFiniteSNREstimates(t *testing.T) {
	for _, c := range []struct {
		est  float64
		want int // subpasses for a fresh 1024-bit block, 9 symbols each
	}{
		{math.NaN(), 1035},
		{math.Inf(-1), 1035},
		{-10, 1035},
		{math.Inf(1), 11},
		{40, 11},
		{10, 42},
	} {
		if got := (CapacityRate{SNREstimateDB: c.est}).SubpassBudget(1024, 9, 0); got != c.want {
			t.Errorf("CapacityRate{%v}: %d subpasses, want %d", c.est, got, c.want)
		}
		tr := NewTrackingRate(c.est)
		tr.MaxRoundSymbols = 1 << 20
		if got := tr.SubpassBudget(1024, 9, 0); got != c.want {
			t.Errorf("NewTrackingRate(%v): %d subpasses, want %d", c.est, got, c.want)
		}
	}
	tr := NewTrackingRate(math.NaN())
	if est := tr.EstimateDB(); est != -10 {
		t.Fatalf("NewTrackingRate(NaN) estimate %v, want -10", est)
	}
	tr.ObserveDecode(192, 93)
	if est := tr.EstimateDB(); math.IsNaN(est) || est == -10 {
		t.Fatalf("estimate %v did not move after ObserveDecode", est)
	}
}

// TestRetxTimerBackoffBounds is the ARQ backoff property: under any
// interleaving of round advances, nacks, and rate-policy vetoes
// (granted transmissions the policy declines to fill), the
// retransmission timeout stays within [base, maxRTO], the countdown
// never exceeds the current timeout, retransmissions are counted only
// for committed timeouts, and a vetoed grant stays due — it leaves no
// phantom timer state behind.
func TestRetxTimerBackoffBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	for trial := 0; trial < 2000; trial++ {
		base := 1 + rng.Intn(10)
		maxRTO := base + rng.Intn(60)
		tm := newRetxTimer(base, maxRTO)
		retxSeen := 0
		vetoed := false
		for step := 0; step < 200; step++ {
			if rng.Intn(4) == 0 {
				tm.nack()
			}
			send, timeout := tm.advance()
			if tm.rto < base || tm.rto > maxRTO {
				t.Fatalf("rto %d outside [%d, %d] at step %d", tm.rto, base, maxRTO, step)
			}
			if tm.timer < 0 || tm.timer > tm.rto {
				t.Fatalf("timer %d outside [0, rto=%d] at step %d", tm.timer, tm.rto, step)
			}
			if timeout && !send {
				t.Fatal("timeout reported without a grant")
			}
			if vetoed && !send {
				t.Fatalf("vetoed grant vanished at step %d", step)
			}
			vetoed = false
			if send {
				if rng.Intn(3) == 0 {
					vetoed = true // policy said SubpassBudget 0: nothing flew
				} else {
					tm.commit(step, timeout)
					if timeout {
						retxSeen++
					}
					if tm.timer != tm.rto {
						t.Fatalf("commit did not re-arm: timer %d, rto %d", tm.timer, tm.rto)
					}
					if tm.lastTx != step {
						t.Fatalf("commit recorded round %d, want %d", tm.lastTx, step)
					}
				}
			}
			if tm.retx != retxSeen {
				t.Fatalf("retx counter %d, observed %d committed timeouts", tm.retx, retxSeen)
			}
		}
	}
}

// TestChaseCombiningNeverWorse is the HARQ property: at an equal symbol
// budget, chase combining (accumulate observations across passes, the
// receiver's one combining rule) never decreases decode probability
// versus discard-and-retry (decode each retry standalone, type-I ARQ,
// emulated here by truncating the accumulators) — and at an SNR where
// single passes are marginal, it is strictly better. Both receivers see
// byte-identical noisy passes.
func TestChaseCombiningNeverWorse(t *testing.T) {
	p := linkParams()
	const trials = 40
	const passes = 24
	chaseWins, discardWins := 0, 0
	for trial := 0; trial < trials; trial++ {
		rng := rand.New(rand.NewSource(int64(900 + trial)))
		data := flowPayload(rng, 12)
		ch := channel.NewAWGN(8, int64(7000+trial)) // marginal: one pass never suffices
		snd := NewSender(data, p, 0)
		chase := NewReceiver(p)
		discard := NewReceiver(p)
		for pass := 0; pass < passes; pass++ {
			f := snd.NextFrame()
			if f == nil {
				break
			}
			rx := ch.Transmit(frameSymbols(f))
			f.Batches = rebatch(f.Batches, rx)
			if _, err := chase.HandleFrame(f); err != nil && !errors.Is(err, ErrStaleFrame) {
				t.Fatal(err)
			}
			// The discard receiver forgets the symbols of every block that
			// failed its attempts so far, so the new pass decodes alone.
			for b := range discard.blocks {
				if blk := &discard.blocks[b]; !blk.got {
					blk.ids, blk.syms = blk.ids[:0], blk.syms[:0]
				}
			}
			if _, err := discard.HandleFrame(f); err != nil && !errors.Is(err, ErrStaleFrame) {
				t.Fatal(err)
			}
		}
		if chase.Complete() {
			chaseWins++
			got, err := chase.Datagram()
			if err != nil || !bytes.Equal(got, data) {
				t.Fatalf("trial %d: chase delivered corrupt data", trial)
			}
		}
		if discard.Complete() {
			discardWins++
		}
	}
	if chaseWins < discardWins {
		t.Fatalf("chase combining decoded %d/%d, discard-and-retry %d/%d — combining made things worse",
			chaseWins, trials, discardWins, trials)
	}
	if chaseWins == discardWins {
		t.Fatalf("no separation at a marginal SNR (both %d/%d) — the comparison has no teeth", chaseWins, trials)
	}
}

// TestTrackingRateConvergesUnderFeedbackDelay: with a fixed 4-round ack
// delay, every RateObserver report arrives late (and none arrives at
// decode time, the instant-feedback assumption) — yet a TrackingRate
// seeded 15 dB below the true channel must still climb toward it while
// every datagram arrives intact.
func TestTrackingRateConvergesUnderFeedbackDelay(t *testing.T) {
	cfg := engineParams()
	// Window 1 serializes the blocks, so each burst is provisioned from
	// the estimate as updated by the previous block's (delayed) report —
	// the cleanest view of the closed loop running a full RTT behind.
	cfg.Feedback = &FeedbackConfig{DelayRounds: 4, Window: 1}
	cfg.Seed = 71
	e := NewEngine(cfg)
	rng := rand.New(rand.NewSource(73))
	tr := NewTrackingRate(0) // true channel: 15 dB
	// Three consecutive datagrams from one sender station: the policy is
	// per-station state and keeps learning across them.
	for round := 0; round < 3; round++ {
		data := flowPayload(rng, 154) // 7 blocks → 7 delayed observations each
		e.AddFlow(data, FlowConfig{
			Channel: channel.NewAWGN(15, int64(300+round)),
			Rate:    tr,
		})
		res := e.Drain(0)
		if len(res) != 1 || res[0].Err != nil {
			t.Fatalf("round %d: %+v", round, res)
		}
		if !bytes.Equal(res[0].Datagram, data) {
			t.Fatalf("round %d: corrupted", round)
		}
	}
	if est := tr.EstimateDB(); est < 8 {
		t.Fatalf("estimate stuck at %.1f dB after 21 delayed observations of a 15 dB channel", est)
	}
}

// TestEngineTrackingRateDelivers: a tracking-paced flow over a bursty
// Gilbert–Elliott channel completes intact, and the engine's decode
// feedback loop (RateObserver plumbing) actually moved the estimate.
func TestEngineTrackingRateDelivers(t *testing.T) {
	e := NewEngine(engineParams())
	data := flowPayload(rand.New(rand.NewSource(23)), 132)
	tr := NewTrackingRate(18)
	id := e.AddFlow(data, FlowConfig{
		Channel: channel.NewGilbertElliott(18, 2, 0.004, 0.016, 77),
		Rate:    tr,
	})
	res := e.Drain(0)
	if len(res) != 1 || res[0].ID != id {
		t.Fatalf("unexpected results %+v", res)
	}
	if res[0].Err != nil {
		t.Fatal(res[0].Err)
	}
	if !bytes.Equal(res[0].Datagram, data) {
		t.Fatal("datagram corrupted")
	}
	if tr.EstimateDB() == 18 {
		t.Fatal("engine never fed decode observations back to the policy")
	}
}

// TestEngineSetChannel: swapping a flow's medium mid-flight (handoff)
// keeps the transfer correct, and the swap reports liveness accurately.
func TestEngineSetChannel(t *testing.T) {
	e := NewEngine(engineParams())
	data := flowPayload(rand.New(rand.NewSource(29)), 88)
	// Start on a hopeless channel, then hand off to a good one.
	id := e.AddFlow(data, FlowConfig{Channel: channel.NewAWGN(-20, 31)})
	for i := 0; i < 4; i++ {
		if res := e.Step(); len(res) != 0 {
			t.Fatalf("flow resolved on a -20 dB channel: %+v", res)
		}
	}
	if !e.SetChannel(id, channel.NewAWGN(18, 32)) {
		t.Fatal("active flow not found for channel swap")
	}
	res := e.Drain(0)
	if len(res) != 1 || res[0].Err != nil {
		t.Fatalf("post-handoff drain: %+v", res)
	}
	if !bytes.Equal(res[0].Datagram, data) {
		t.Fatal("datagram corrupted across handoff")
	}
	if e.SetChannel(id, nil) {
		t.Fatal("resolved flow reported as active")
	}
}

// TestWireRoundTrip: EncodeFrame/DecodeFrame are inverses on real frames.
func TestWireRoundTrip(t *testing.T) {
	snd := NewSender([]byte("wire round trip with several blocks of data"), linkParams(), 128)
	f := snd.NextFrame()
	got, err := DecodeFrame(EncodeFrame(f))
	if err != nil {
		t.Fatal(err)
	}
	if got.Seq != f.Seq || len(got.BlockBits) != len(f.BlockBits) || len(got.Batches) != len(f.Batches) {
		t.Fatalf("structure mismatch: %+v vs %+v", got, f)
	}
	for i := range f.BlockBits {
		if got.BlockBits[i] != f.BlockBits[i] {
			t.Fatal("layout mismatch")
		}
	}
	for i := range f.Batches {
		a, b := f.Batches[i], got.Batches[i]
		if a.Block != b.Block || len(a.IDs) != len(b.IDs) || len(a.Symbols) != len(b.Symbols) {
			t.Fatal("batch structure mismatch")
		}
		for j := range a.IDs {
			if a.IDs[j] != b.IDs[j] {
				t.Fatal("ID mismatch")
			}
		}
		for j := range a.Symbols {
			if a.Symbols[j] != b.Symbols[j] {
				t.Fatal("symbol mismatch")
			}
		}
	}
	if EncodeFrame(nil) != nil {
		t.Fatal("nil frame encoded to bytes")
	}
}

// TestWireRejectsGarbage: truncations and hostile length prefixes are
// errors, never panics or huge allocations.
func TestWireRejectsGarbage(t *testing.T) {
	full := EncodeFrame(NewSender([]byte("truncate me"), linkParams(), 0).NextFrame())
	for cut := 0; cut < len(full); cut += 7 {
		if _, err := DecodeFrame(full[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	if _, err := DecodeFrame(append(append([]byte(nil), full...), 0xff)); err == nil {
		t.Fatal("trailing bytes accepted")
	}
	// A length prefix claiming 2^40 symbols in a 20-byte input.
	hostile := []byte{0, 0, 0, 0, 0x01, 0x02, 0x01, 0x00, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x03}
	if _, err := DecodeFrame(hostile); err == nil {
		t.Fatal("hostile length prefix accepted")
	}
}

// TestHandleFrameBadSymbolID: out-of-spine chunk indices are rejected
// with the typed error instead of panicking the decoder replay.
func TestHandleFrameBadSymbolID(t *testing.T) {
	p := linkParams()
	rcv := NewReceiver(p)
	f := NewSender([]byte("bad ids"), p, 0).NextFrame()
	f.Batches[0].IDs[0].Chunk = 99999
	if _, err := rcv.HandleFrame(f); err == nil {
		t.Fatal("out-of-range chunk accepted")
	}
	f2 := NewSender([]byte("bad ids"), p, 0).NextFrame()
	f2.Batches[0].IDs[0].Chunk = -1
	if _, err := rcv.HandleFrame(f2); err == nil {
		t.Fatal("negative chunk accepted")
	}
}
