package link

import (
	"bytes"
	"math/rand"
	"testing"

	"spinal/internal/channel"
	icode "spinal/internal/code"
	"spinal/internal/core"
)

// paperParams is spinald's daemon-paper operating point: the paper's
// defaults, B=256.
func paperParams() core.Params { return core.DefaultParams() }

// fullWidthCode hides the spinal decoder's narrow rung, so every attempt
// decodes at the full B alone — the receiver before the ladder.
type fullWidthCode struct{ icode.Code }

func (c fullWidthCode) NewDecoder(nBits int) icode.Decoder {
	return struct{ icode.Decoder }{c.Code.NewDecoder(nBits)}
}

// runPaperFlows sends payloads through an engine over cd, 16 flows at a
// time (one spinald shard's load), each over its own seeded 10 dB AWGN
// medium with CapacityRate pacing and half-duplex accounting. The frame
// budget never binds at 16 flows, so a flow's symbols depend on its own
// decodes alone.
func runPaperFlows(t *testing.T, cd icode.Code, payloads [][]byte) []FlowResult {
	t.Helper()
	e := NewEngine(EngineConfig{
		Params:          paperParams(),
		Code:            cd,
		Shards:          2,
		HalfDuplex:      &HalfDuplexConfig{},
		CheckInvariants: true,
	})
	out := make([]FlowResult, len(payloads))
	const wave = 16
	for lo := 0; lo < len(payloads); lo += wave {
		for i := lo; i < min(lo+wave, len(payloads)); i++ {
			id := e.AddFlow(payloads[i], FlowConfig{
				Channel: channel.NewAWGN(10, int64(7000+i)),
				Rate:    CapacityRate{SNREstimateDB: 10},
			})
			if int(id) != i {
				t.Fatalf("flow %d got id %d", i, id)
			}
		}
		for _, r := range e.Drain(0) {
			out[r.ID] = r
		}
	}
	return out
}

// TestLadderMatchesFullWidth holds the escalating beam to the full-width
// receiver at the paper's point: over 512 seeded 528-bit flows at B=256
// and 10 dB every delivered payload is the one sent, and each flow
// spends exactly the forward symbols a full-width-only receiver spends,
// except where a narrow rung decodes a block the full beam missed in the
// same attempt — that flow then finishes earlier, never later.
func TestLadderMatchesFullWidth(t *testing.T) {
	const flows = 512
	rng := rand.New(rand.NewSource(528))
	payloads := make([][]byte, flows)
	for i := range payloads {
		payloads[i] = flowPayload(rng, 64)
	}
	sp := icode.Spinal(paperParams())
	ladder := runPaperFlows(t, sp, payloads)
	full := runPaperFlows(t, fullWidthCode{sp}, payloads)

	var attempts, narrow, escalations, blocks, rescued int
	for i := range payloads {
		l, f := ladder[i], full[i]
		if l.Err != nil || f.Err != nil {
			t.Fatalf("flow %d: ladder err %v, full-width err %v", i, l.Err, f.Err)
		}
		if !bytes.Equal(l.Datagram, payloads[i]) {
			t.Fatalf("flow %d: ladder delivered the wrong payload", i)
		}
		if f.Stats.NarrowAttempts != 0 || f.Stats.Escalations != 0 {
			t.Fatalf("flow %d: full-width receiver ran a narrow rung: %+v", i, f.Stats)
		}
		switch ls, fs := l.Stats.SymbolsSent, f.Stats.SymbolsSent; {
		case ls > fs:
			t.Fatalf("flow %d: ladder spent %d forward symbols, full width %d", i, ls, fs)
		case ls < fs:
			rescued++
		}
		attempts += l.Stats.DecodeAttempts
		narrow += l.Stats.NarrowAttempts
		escalations += l.Stats.Escalations
		blocks += l.Stats.Blocks
	}
	if narrow != attempts {
		t.Fatalf("%d of %d attempts began narrow; at B=256 every one should", narrow, attempts)
	}
	if escalations == 0 || escalations > attempts/4 {
		t.Fatalf("%d escalations in %d attempts; the narrow rung should decide most blocks", escalations, attempts)
	}
	if rescued > flows/50 {
		t.Fatalf("%d of %d flows finished earlier than at full width; a narrow rung beats the full beam only rarely", rescued, flows)
	}
	t.Logf("%d flows, %d blocks: %d attempts, %d narrow, %d escalations (%.3f per block); %d flows finished earlier than at full width",
		flows, blocks, attempts, narrow, escalations, float64(escalations)/float64(blocks), rescued)
}

// TestNoLadderBelowB256: the narrow rung runs only at B/4 ≥ 64, so a
// B ≤ 128 receiver — every golden, daemon-small, the link benchmarks —
// decodes each attempt once, at B, exactly as before the ladder.
func TestNoLadderBelowB256(t *testing.T) {
	for _, b := range []int{16, 32, 128} {
		p := linkParams()
		p.B = b
		e := NewEngine(EngineConfig{Params: p, MaxBlockBits: 192, Shards: 2, CheckInvariants: true})
		rng := rand.New(rand.NewSource(int64(b)))
		for i := 0; i < 8; i++ {
			e.AddFlow(flowPayload(rng, 44), FlowConfig{
				Channel: channel.NewAWGN(10, int64(i)),
				Rate:    CapacityRate{SNREstimateDB: 10},
			})
		}
		for _, r := range e.Drain(0) {
			if r.Err != nil {
				t.Fatalf("B=%d flow %d: %v", b, r.ID, r.Err)
			}
			if r.Stats.DecodeAttempts == 0 || r.Stats.NarrowAttempts != 0 || r.Stats.Escalations != 0 {
				t.Fatalf("B=%d flow %d: %d attempts, %d narrow, %d escalations",
					b, r.ID, r.Stats.DecodeAttempts, r.Stats.NarrowAttempts, r.Stats.Escalations)
			}
		}
	}
}

// TestStandaloneReceiverLadder: the standalone Receiver runs the same
// ladder as the engine — at B=256 its attempts begin narrow, and a
// narrow failure is decoded again at the full width in the same
// HandleFrame call.
func TestStandaloneReceiverLadder(t *testing.T) {
	rng := rand.New(rand.NewSource(256))
	data := flowPayload(rng, 64)
	s := NewSender(data, paperParams(), 0)
	r := NewReceiver(paperParams())
	ch := channel.NewAWGN(10, 3)
	for f := s.NextFrame(); f != nil; f = s.NextFrame() {
		y := ch.Transmit(frameSymbols(f))
		for i := range f.Batches {
			n := len(f.Batches[i].Symbols)
			f.Batches[i].Symbols, y = y[:n], y[n:]
		}
		a, _ := r.HandleFrame(f)
		s.HandleAck(a)
	}
	got, err := r.Datagram()
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("datagram: %v", err)
	}
	blk := r.blocks[0]
	if blk.attempts == 0 || blk.narrow != blk.attempts || blk.escalations > blk.narrow {
		t.Fatalf("%d attempts, %d narrow, %d escalations", blk.attempts, blk.narrow, blk.escalations)
	}
}
