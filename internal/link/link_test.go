package link

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"spinal/internal/channel"
	"spinal/internal/core"
	"spinal/internal/framing"
)

func linkParams() core.Params {
	return core.Params{K: 4, B: 32, D: 1, C: 6, Tail: 2, Ways: 8}
}

// frameSymbols flattens a frame's symbols in batch order, so one
// channel.Model call can cross the whole frame.
func frameSymbols(f *Frame) []complex128 {
	out := make([]complex128, 0, f.SymbolCount())
	for _, b := range f.Batches {
		out = append(out, b.Symbols...)
	}
	return out
}

// rebatch redistributes channel-output symbols back into per-block
// batches.
func rebatch(batches []Batch, rx []complex128) []Batch {
	out := make([]Batch, len(batches))
	off := 0
	for i, b := range batches {
		out[i] = Batch{Block: b.Block, IDs: b.IDs, Symbols: rx[off : off+len(b.Symbols)]}
		off += len(b.Symbols)
	}
	return out
}

// Apart from the erasure case, the TestTransfer cases run one datagram as
// the only flow of an engine (engineRun) at the default pacing, one
// subpass per block per round.

func TestTransferSmallDatagram(t *testing.T) {
	data := []byte("the quick brown fox jumps over the lazy dog")
	r := engineRun(t, EngineConfig{}, FlowConfig{Channel: channel.NewAWGN(15, 1)}, data)
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	if !bytes.Equal(r.Datagram, data) {
		t.Fatal("datagram corrupted")
	}
	if r.Stats.Blocks != 1 {
		t.Fatalf("blocks = %d, want 1", r.Stats.Blocks)
	}
	if r.Stats.Rate <= 0 {
		t.Fatal("no rate recorded")
	}
}

func TestTransferMultiBlock(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	data := make([]byte, 600) // 5 blocks at 1024-bit framing
	rng.Read(data)
	r := engineRun(t, EngineConfig{}, FlowConfig{Channel: channel.NewAWGN(20, 3)}, data)
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	if !bytes.Equal(r.Datagram, data) {
		t.Fatal("datagram corrupted")
	}
	if r.Stats.Blocks != 5 {
		t.Fatalf("blocks = %d, want 5", r.Stats.Blocks)
	}
}

// TestTransferSurvivesFrameErasure drives a standalone Sender/Receiver
// pair and drops 30% of the frames: the receiver sees gaps in Seq, and
// the per-batch symbol IDs must keep it synchronized.
func TestTransferSurvivesFrameErasure(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	data := make([]byte, 200)
	rng.Read(data)
	p := linkParams()
	snd := NewSender(data, p, 0)
	rcv := NewReceiver(p)
	ch := channel.NewAWGN(15, 5)
	loss := rand.New(rand.NewSource(6))
	frames, dropped := 0, 0
	for ; frames < 10000 && !snd.Done(); frames++ {
		f := snd.NextFrame()
		if loss.Float64() < 0.3 {
			dropped++
			continue
		}
		f.Batches = rebatch(f.Batches, ch.Transmit(frameSymbols(f)))
		ack, err := rcv.HandleFrame(f)
		if err != nil {
			t.Fatal(err)
		}
		snd.HandleAck(ack)
	}
	got, err := rcv.Datagram()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("datagram corrupted under frame erasure")
	}
	if dropped == 0 || frames <= 1 {
		t.Fatalf("%d frames, %d dropped: no sequence gap exercised", frames, dropped)
	}
}

func TestTransferLowSNRUsesMoreSymbols(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	data := make([]byte, 120)
	rng.Read(data)
	high := engineRun(t, EngineConfig{}, FlowConfig{Channel: channel.NewAWGN(25, 7)}, data)
	low := engineRun(t, EngineConfig{}, FlowConfig{Channel: channel.NewAWGN(5, 7)}, data)
	if high.Err != nil || low.Err != nil {
		t.Fatalf("errors: high %v, low %v", high.Err, low.Err)
	}
	if low.Stats.SymbolsSent <= high.Stats.SymbolsSent {
		t.Fatalf("low SNR used %d symbols, high SNR %d — rateless adaptation missing",
			low.Stats.SymbolsSent, high.Stats.SymbolsSent)
	}
}

func TestSenderStopsAckedBlocks(t *testing.T) {
	data := make([]byte, 300)
	snd := NewSender(data, linkParams(), 0)
	f := snd.NextFrame()
	if len(f.Batches) != 3 {
		t.Fatalf("first frame has %d batches, want 3", len(f.Batches))
	}
	snd.HandleAck(framing.Ack{Decoded: []bool{true, false, false}})
	f = snd.NextFrame()
	if len(f.Batches) != 2 {
		t.Fatalf("post-ACK frame has %d batches, want 2", len(f.Batches))
	}
	for _, b := range f.Batches {
		if b.Block == 0 {
			t.Fatal("acked block still transmitted")
		}
	}
}

func TestReceiverIncremental(t *testing.T) {
	data := []byte("incremental decode across frames!")
	p := linkParams()
	snd := NewSender(data, p, 0)
	rcv := NewReceiver(p)
	ch := channel.NewAWGN(8, 9)
	var done bool
	for i := 0; i < 200 && !done; i++ {
		f := snd.NextFrame()
		if f == nil {
			done = true
			break
		}
		rx := ch.Transmit(frameSymbols(f))
		f.Batches = rebatch(f.Batches, rx)
		ack, err := rcv.HandleFrame(f)
		if err != nil {
			t.Fatal(err)
		}
		snd.HandleAck(ack)
		done = snd.Done()
	}
	if !done {
		t.Fatal("transfer did not complete")
	}
	got, err := rcv.Datagram()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("datagram corrupted")
	}
}

func TestDatagramIncompleteError(t *testing.T) {
	r := NewReceiver(linkParams())
	if _, err := r.Datagram(); err == nil {
		t.Fatal("expected error for incomplete datagram")
	}
	if r.Complete() {
		t.Fatal("fresh receiver claims completeness")
	}
}

func TestTransferEmptyDatagram(t *testing.T) {
	r := engineRun(t, EngineConfig{}, FlowConfig{Channel: channel.NewAWGN(20, 11)}, nil)
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	if len(r.Datagram) != 0 {
		t.Fatal("empty datagram round trip produced data")
	}
}

func TestTransferGivesUpAtBudget(t *testing.T) {
	// At -20 dB with a 5-round budget the flow must resolve with
	// ErrFlowBudget rather than spin forever.
	data := make([]byte, 50)
	r := engineRun(t, EngineConfig{}, FlowConfig{Channel: channel.NewAWGN(-20, 13), MaxRounds: 5}, data)
	if !errors.Is(r.Err, ErrFlowBudget) {
		t.Fatalf("err = %v, want ErrFlowBudget at -20 dB with 5 rounds", r.Err)
	}
	if r.Stats.Frames > 5 {
		t.Fatalf("%d frames past a 5-round budget", r.Stats.Frames)
	}
}
