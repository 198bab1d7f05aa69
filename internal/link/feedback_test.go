package link

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"testing"

	"spinal/internal/channel"
	"spinal/internal/framing"
)

// TestAckWireRoundTrip: EncodeAck/DecodeAck are inverses across block
// counts straddling every bitmap-byte boundary.
func TestAckWireRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	// 70000 exceeds the frame codec's per-list cap: ack block counts are
	// bounded separately (ackMaxBlocks), because a giant flow's acks ride
	// the live feedback path and must keep decoding.
	for _, n := range []int{0, 1, 2, 7, 8, 9, 15, 16, 17, 64, 100, 70000} {
		a := framing.Ack{Seq: rng.Uint32()}
		if n > 0 {
			a.Decoded = make([]bool, n)
			for i := range a.Decoded {
				a.Decoded[i] = rng.Intn(2) == 0
			}
		}
		w := EncodeAck(a)
		if got := ackWireLen(a); got != len(w) {
			t.Fatalf("n=%d: ackWireLen %d, encoded %d bytes", n, got, len(w))
		}
		got, err := DecodeAck(w)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if got.Seq != a.Seq || len(got.Decoded) != len(a.Decoded) {
			t.Fatalf("n=%d: structure mismatch: %+v vs %+v", n, got, a)
		}
		for i := range a.Decoded {
			if got.Decoded[i] != a.Decoded[i] {
				t.Fatalf("n=%d: bit %d flipped", n, i)
			}
		}
	}
}

// TestAckWireRejectsGarbage: truncations, hostile block counts, nonzero
// padding bits and trailing bytes all yield ErrBadAckWire, never panics
// or big allocations.
func TestAckWireRejectsGarbage(t *testing.T) {
	full := EncodeAck(framing.Ack{Seq: 7, Decoded: []bool{true, false, true, true, false, true, false, false, true}})
	for cut := 0; cut < len(full); cut++ {
		if _, err := DecodeAck(full[:cut]); !errors.Is(err, ErrBadAckWire) {
			t.Fatalf("truncation at %d: err = %v", cut, err)
		}
	}
	if _, err := DecodeAck(append(append([]byte(nil), full...), 0)); !errors.Is(err, ErrBadAckWire) {
		t.Fatalf("trailing byte: err = %v", err)
	}
	// 9 blocks ⇒ 2 bitmap bytes, 7 padding bits in the second; set one.
	bad := append([]byte(nil), full...)
	bad[len(bad)-1] |= 0x80
	if _, err := DecodeAck(bad); !errors.Is(err, ErrBadAckWire) {
		t.Fatalf("nonzero padding accepted: err = %v", err)
	}
	// A count claiming 2^40 blocks in a 6-byte input.
	hostile := []byte{0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff, 0xff, 0x03}
	if _, err := DecodeAck(hostile); !errors.Is(err, ErrBadAckWire) {
		t.Fatalf("hostile count: err = %v", err)
	}
}

// TestFeedbackChannelDelay: an ack sent at round r arrives exactly
// DelayRounds Advances later — not before, not after — and Advance with
// DelayRounds 0 delivers within the same round.
func TestFeedbackChannelDelay(t *testing.T) {
	for _, delay := range []int{0, 1, 3, 8} {
		fb := NewFeedbackChannel(FeedbackConfig{DelayRounds: delay}, 1)
		fb.Send(framing.Ack{Seq: 42, Decoded: []bool{true}})
		for round := 0; round <= delay; round++ {
			got := fb.Advance()
			if round < delay && len(got) != 0 {
				t.Fatalf("delay %d: ack arrived early at round %d", delay, round)
			}
			if round == delay {
				if len(got) != 1 || got[0].Seq != 42 || !got[0].Decoded[0] {
					t.Fatalf("delay %d: got %+v at due round", delay, got)
				}
			}
		}
		if got := fb.Advance(); len(got) != 0 {
			t.Fatalf("delay %d: duplicate delivery %+v", delay, got)
		}
	}
}

// TestFeedbackChannelJitterAndOrder: acks the fault injector displaces
// (FaultConfig.AckReorder) land within [Delay+1, Delay+ReorderDepth],
// the rest exactly at Delay, and acks due in the same round arrive in
// send order.
func TestFeedbackChannelJitterAndOrder(t *testing.T) {
	fb := NewFeedbackChannel(FeedbackConfig{DelayRounds: 2}, 9)
	inj := newFaultInjector(FaultConfig{AckReorder: 0.5, ReorderDepth: 3}, 9)
	fb.setFaults(inj)
	const acks = 200
	arrivals, late := 0, 0
	for i := 0; i < acks; i++ {
		fb.Send(framing.Ack{Seq: uint32(i), Decoded: []bool{false}})
	}
	for round := 0; round <= 5; round++ {
		prev := -1
		for _, a := range fb.Advance() {
			if round < 2 {
				t.Fatalf("ack %d arrived at round %d, below the base delay", a.Seq, round)
			}
			arrivals++
			if round > 2 {
				late++
			}
			// All acks were sent before any Advance, so within one round
			// the queue must deliver due entries FIFO: seqs strictly
			// increasing. (Different displacements may interleave across
			// rounds; that is legal.)
			if int(a.Seq) <= prev {
				t.Fatalf("round %d delivered ack %d after ack %d — the pop reordered the queue", round, a.Seq, prev)
			}
			prev = int(a.Seq)
		}
	}
	if arrivals != acks {
		t.Fatalf("delivered %d/%d acks inside the displacement window", arrivals, acks)
	}
	if late != inj.stats.AcksReordered || late == 0 {
		t.Fatalf("%d acks arrived late, injector displaced %d", late, inj.stats.AcksReordered)
	}
}

// TestFeedbackChannelLoss: the loss rate is honoured statistically and
// the counters reconcile: sent = lost + delivered + still queued.
func TestFeedbackChannelLoss(t *testing.T) {
	fb := NewFeedbackChannel(FeedbackConfig{DelayRounds: 1, Loss: 0.3}, 5)
	const acks = 20000
	delivered := 0
	for i := 0; i < acks; i++ {
		fb.Send(framing.Ack{Seq: uint32(i), Decoded: []bool{true}})
		delivered += len(fb.Advance())
	}
	delivered += len(fb.Advance())
	sent, lost, del := fb.Counters()
	if sent != acks || del != delivered || lost+del != acks {
		t.Fatalf("counters do not reconcile: sent=%d lost=%d delivered=%d (saw %d)", sent, lost, del, delivered)
	}
	if rate := float64(lost) / acks; rate < 0.27 || rate > 0.33 {
		t.Fatalf("loss rate %.3f, want ≈0.3", rate)
	}
}

// TestFeedbackConfigDefaults pins the derived ARQ parameters: RTO just
// past the earliest possible ack, backoff cap at 8×RTO (never below
// RTO), window of 8.
func TestFeedbackConfigDefaults(t *testing.T) {
	c := FeedbackConfig{DelayRounds: 8}
	if c.rto() != 10 || c.maxRTO() != 80 || c.window() != 8 {
		t.Fatalf("defaults: rto=%d maxRTO=%d window=%d", c.rto(), c.maxRTO(), c.window())
	}
	c = FeedbackConfig{DelayRounds: 4, RTO: 3, MaxRTO: 2, Window: 1}
	if c.rto() != 3 || c.maxRTO() != 3 || c.window() != 1 {
		t.Fatalf("explicit: rto=%d maxRTO=%d window=%d", c.rto(), c.maxRTO(), c.window())
	}
}

// TestEngineFeedbackDelayDelivers: with an 8-round ack delay the engine
// still delivers every flow intact, pays for the delay in rounds (not
// retransmissions — nack continuations are not timeouts), and reports
// reverse-channel traffic in the stats.
func TestEngineFeedbackDelayDelivers(t *testing.T) {
	cfg := engineParams()
	cfg.Feedback = &FeedbackConfig{DelayRounds: 8}
	e := NewEngine(cfg)
	rng := rand.New(rand.NewSource(41))
	want := make(map[FlowID][]byte)
	for i := 0; i < 4; i++ {
		data := flowPayload(rng, 88)
		want[e.AddFlow(data, FlowConfig{Channel: channel.NewAWGN(12, int64(100+i))})] = data
	}
	results := e.Drain(0)
	if len(results) != 4 {
		t.Fatalf("resolved %d flows, want 4", len(results))
	}
	for _, r := range results {
		if r.Err != nil {
			t.Fatalf("flow %d: %v", r.ID, r.Err)
		}
		if !bytes.Equal(r.Datagram, want[r.ID]) {
			t.Fatalf("flow %d corrupted", r.ID)
		}
		if r.Stats.AcksSent == 0 {
			t.Fatalf("flow %d reported no reverse-channel traffic: %+v", r.ID, r.Stats)
		}
		if r.Stats.Frames <= r.Stats.Blocks {
			t.Fatalf("flow %d finished in %d rounds — the 8-round ack delay cannot have been paid", r.ID, r.Stats.Frames)
		}
	}
}

// TestEngineFeedbackLossDelivers: with 40% ack loss the retransmission
// timers carry the transfer — flows complete intact and the stats show
// both lost acks and timeout retransmissions.
func TestEngineFeedbackLossDelivers(t *testing.T) {
	cfg := engineParams()
	cfg.Feedback = &FeedbackConfig{DelayRounds: 1, Loss: 0.4}
	cfg.Seed = 6
	e := NewEngine(cfg)
	rng := rand.New(rand.NewSource(43))
	want := make(map[FlowID][]byte)
	for i := 0; i < 6; i++ {
		data := flowPayload(rng, 110)
		want[e.AddFlow(data, FlowConfig{Channel: channel.NewAWGN(14, int64(200+i))})] = data
	}
	var acksLost, retx int
	for _, r := range e.Drain(0) {
		if r.Err != nil {
			t.Fatalf("flow %d: %v", r.ID, r.Err)
		}
		if !bytes.Equal(r.Datagram, want[r.ID]) {
			t.Fatalf("flow %d corrupted", r.ID)
		}
		acksLost += r.Stats.AcksLost
		retx += r.Stats.Retransmissions
	}
	if acksLost == 0 {
		t.Fatal("40% ack loss produced no lost acks")
	}
	if retx == 0 {
		t.Fatal("lost acks never fired a retransmission timeout")
	}
}

// TestEngineFeedbackWindow: a one-block in-flight window serializes a
// multi-block flow — it must still complete, and cannot have had more
// than one block racing (every frame carries at most one batch, so
// frames ≥ blocks even at high SNR).
func TestEngineFeedbackWindow(t *testing.T) {
	cfg := engineParams()
	cfg.Feedback = &FeedbackConfig{DelayRounds: 0, Window: 1}
	e := NewEngine(cfg)
	data := flowPayload(rand.New(rand.NewSource(47)), 110) // 5 blocks
	id := e.AddFlow(data, FlowConfig{Channel: channel.NewAWGN(20, 9)})
	res := e.Drain(0)
	if len(res) != 1 || res[0].ID != id || res[0].Err != nil {
		t.Fatalf("unexpected results %+v", res)
	}
	if !bytes.Equal(res[0].Datagram, data) {
		t.Fatal("datagram corrupted")
	}
	if res[0].Stats.Frames < res[0].Stats.Blocks {
		t.Fatalf("window 1 flow used %d frames for %d blocks — blocks overlapped",
			res[0].Stats.Frames, res[0].Stats.Blocks)
	}
}

// TestEngineFeedbackTotalAckLoss: a reverse channel that drops every ack
// must end in ErrFlowBudget (the sender can never learn), not a hang —
// and backoff must have kicked in along the way.
func TestEngineFeedbackTotalAckLoss(t *testing.T) {
	cfg := engineParams()
	cfg.Feedback = &FeedbackConfig{DelayRounds: 1, Loss: 1.0}
	e := NewEngine(cfg)
	e.AddFlow(flowPayload(rand.New(rand.NewSource(53)), 40), FlowConfig{
		Channel:   channel.NewAWGN(20, 10),
		MaxRounds: 64,
	})
	res := e.Drain(0)
	if len(res) != 1 || !errors.Is(res[0].Err, ErrFlowBudget) {
		t.Fatalf("want ErrFlowBudget, got %+v", res)
	}
	if res[0].Stats.Retransmissions == 0 {
		t.Fatal("total ack loss never fired a retransmission")
	}
}

// TestAckWireSelectiveVariant: sparse (or nearly complete) acks take the
// run-length selective variant, which beats the bitmap by an order of
// magnitude and still round-trips exactly.
func TestAckWireSelectiveVariant(t *testing.T) {
	dec := make([]bool, 512)
	dec[3], dec[4], dec[200] = true, true, true
	a := framing.Ack{Seq: 9, Decoded: dec}
	w := EncodeAck(a)
	if bitmap := 4 + 2 + (512+7)/8; len(w) >= bitmap {
		t.Fatalf("sparse 512-block ack took %d bytes, bitmap would be %d", len(w), bitmap)
	}
	got, err := DecodeAck(w)
	if err != nil {
		t.Fatal(err)
	}
	if got.Seq != a.Seq || len(got.Decoded) != len(a.Decoded) {
		t.Fatalf("structure mismatch: %+v", got)
	}
	for i := range dec {
		if got.Decoded[i] != dec[i] {
			t.Fatalf("bit %d flipped", i)
		}
	}
	if !bytes.Equal(EncodeAck(got), w) {
		t.Fatal("selective encode∘decode is not the identity")
	}

	// The inverse-sparse case (all but a few decoded) is two runs.
	for i := range dec {
		dec[i] = true
	}
	dec[100] = false
	if w := EncodeAck(framing.Ack{Decoded: dec}); len(w) > 12 {
		t.Fatalf("nearly-complete 512-block ack took %d bytes", len(w))
	}
}

// TestAckWireSelectiveStrict: the selective parser rejects the encodings
// a strict canonical codec must never accept — the variant the encoder
// would not choose, non-maximal runs, runs past the block count, and
// padded varints inside the payload.
func TestAckWireSelectiveStrict(t *testing.T) {
	le := func(seq uint32) []byte {
		b := make([]byte, 4)
		binary.LittleEndian.PutUint32(b, seq)
		return b
	}
	uv := func(vs ...uint64) []byte {
		var b []byte
		for _, v := range vs {
			b = binary.AppendUvarint(b, v)
		}
		return b
	}
	bigBitmap := append(le(1), uv(512<<1)...)
	bigBitmap = append(bigBitmap, 0x01)
	bigBitmap = append(bigBitmap, make([]byte, 63)...)
	cases := map[string][]byte{
		// 512 blocks as an explicit 64-byte bitmap although the selective
		// form is smaller (one run at block 0): non-canonical variant.
		"non-canonical bitmap": bigBitmap,
		// 512 blocks, runs {0..0} and {1..1}: adjacent runs must merge.
		"non-maximal runs": append(le(1), uv(512<<1|1, 2, 0, 0, 0, 0)...),
		// 512 blocks, one run reaching past the end.
		"run past count": append(le(1), uv(512<<1|1, 1, 500, 60)...),
		// selective variant claiming more blocks than its cap.
		"selective too large": append(le(1), uv((1<<20)<<1|1, 0)...),
		// padded varint inside the payload (run count 0 as 0x80 0x00).
		"padded varint": append(append(le(1), uv(512<<1|1)...), 0x80, 0x00),
	}
	for name, w := range cases {
		if _, err := DecodeAck(w); !errors.Is(err, ErrBadAckWire) {
			t.Errorf("%s: err = %v, want ErrBadAckWire", name, err)
		}
	}
	// Sanity: the canonical selective form of the first case is accepted.
	ok := append(le(1), uv(512<<1|1, 1, 0, 0)...)
	a, err := DecodeAck(ok)
	if err != nil {
		t.Fatalf("canonical selective rejected: %v", err)
	}
	if !a.Decoded[0] || a.Decoded[1] {
		t.Fatal("canonical selective decoded wrong bits")
	}
}
