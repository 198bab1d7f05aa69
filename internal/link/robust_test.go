package link

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"spinal/internal/core"
	"spinal/internal/framing"
)

// TestReceiverIgnoresBogusBlockIndex: a corrupted frame naming a block
// beyond the datagram layout must not panic or corrupt state.
func TestReceiverIgnoresBogusBlockIndex(t *testing.T) {
	p := linkParams()
	data := []byte("robustness")
	snd := NewSender(data, p, 0)
	rcv := NewReceiver(p)
	f := snd.NextFrame()
	f.Batches = append(f.Batches, Batch{
		Block:   99,
		IDs:     []core.SymbolID{{Chunk: 0, RNGIndex: 0}},
		Symbols: []complex128{1},
	})
	ack, err := rcv.HandleFrame(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(ack.Decoded) != 1 {
		t.Fatalf("ack covers %d blocks, want 1", len(ack.Decoded))
	}
}

// TestSenderIgnoresOversizedAck: an ACK with more bits than blocks must
// not panic.
func TestSenderIgnoresOversizedAck(t *testing.T) {
	snd := NewSender([]byte("x"), linkParams(), 0)
	snd.HandleAck(framing.Ack{Decoded: []bool{true, true, true, true}})
	if !snd.Done() {
		t.Fatal("single block should be acked")
	}
	if snd.NextFrame() != nil {
		t.Fatal("done sender emitted a frame")
	}
}

// TestReceiverDuplicateFrames: replaying the same frame (retransmission
// or duplicate delivery) must be harmless.
func TestReceiverDuplicateFrames(t *testing.T) {
	p := linkParams()
	data := []byte("duplicate delivery is fine")
	snd := NewSender(data, p, 0)
	rcv := NewReceiver(p)
	f := snd.NextFrame()
	// Noiseless symbols: deliver the same frame three times, then
	// continue normally.
	for i := 0; i < 3; i++ {
		dup := *f
		dup.Batches = rebatch(f.Batches, frameSymbols(f))
		if _, err := rcv.HandleFrame(&dup); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 50 && !rcv.Complete(); i++ {
		f = snd.NextFrame()
		ack, err := rcv.HandleFrame(f)
		if err != nil && !errors.Is(err, ErrStaleFrame) {
			t.Fatal(err)
		}
		snd.HandleAck(ack)
	}
	got, err := rcv.Datagram()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("datagram corrupted by duplicates")
	}
}

// TestFrameSymbolsRoundTrip: frameSymbols/rebatch are inverses.
func TestFrameSymbolsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	data := make([]byte, 300)
	rng.Read(data)
	snd := NewSender(data, linkParams(), 0)
	f := snd.NextFrame()
	flat := frameSymbols(f)
	if len(flat) != f.SymbolCount() {
		t.Fatal("SymbolCount mismatch")
	}
	back := rebatch(f.Batches, flat)
	for i, b := range back {
		if b.Block != f.Batches[i].Block || len(b.Symbols) != len(f.Batches[i].Symbols) {
			t.Fatal("rebatch structure mismatch")
		}
		for j := range b.Symbols {
			if b.Symbols[j] != f.Batches[i].Symbols[j] {
				t.Fatal("rebatch symbol mismatch")
			}
		}
	}
}

// TestDuplicateSymbolIDsHarmless: a decoder receiving the same SymbolID
// twice (replayed frame content) still decodes — the duplicate is just
// another observation of the same value.
func TestDuplicateSymbolIDsHarmless(t *testing.T) {
	p := linkParams()
	data := []byte("dup ids")
	blocks := framing.Segment(data, 0)
	bits := blocks[0].Bits()
	enc := core.NewEncoder(bits, blocks[0].NumBits(), p)
	dec := core.NewDecoder(blocks[0].NumBits(), p)
	sched := enc.NewSchedule()
	ids := sched.NextSubpass()
	sym := enc.Symbols(ids)
	dec.Add(ids, sym)
	dec.Add(ids, sym) // replay
	for sub := 1; sub < 2*p.Ways; sub++ {
		ids := sched.NextSubpass()
		dec.Add(ids, enc.Symbols(ids))
	}
	decoded, _ := dec.Decode()
	payload, ok := framing.Verify(decoded)
	if !ok || !bytes.Equal(payload, data) {
		t.Fatal("decode failed with duplicated symbols")
	}
}

// TestHandleFrameNil: a nil frame is a typed error, not a panic.
func TestHandleFrameNil(t *testing.T) {
	rcv := NewReceiver(linkParams())
	if _, err := rcv.HandleFrame(nil); !errors.Is(err, ErrNilFrame) {
		t.Fatalf("err = %v, want ErrNilFrame", err)
	}
}

// TestHandleFrameBadLayout: zero, negative, and absurd block sizes are
// rejected with ErrBadLayout instead of sizing decoders.
func TestHandleFrameBadLayout(t *testing.T) {
	for _, layout := range [][]int{nil, {}, {0}, {-8}, {1 << 30}, {1024, 0}} {
		rcv := NewReceiver(linkParams())
		_, err := rcv.HandleFrame(&Frame{BlockBits: layout})
		if !errors.Is(err, ErrBadLayout) {
			t.Fatalf("layout %v: err = %v, want ErrBadLayout", layout, err)
		}
	}
}

// TestHandleFrameStale: once every block a frame mentions has decoded,
// replaying it yields ErrStaleFrame plus a still-valid ACK — the sender
// resyncs from it instead of livelocking.
func TestHandleFrameStale(t *testing.T) {
	p := linkParams()
	data := []byte("stale frames must not livelock")
	snd := NewSender(data, p, 0)
	rcv := NewReceiver(p)
	var clean Frame
	var ack framing.Ack
	var err error
	for i := 0; i < 50 && !ack.AllDecoded(); i++ {
		f := snd.NextFrame()
		clean = *f
		clean.Batches = rebatch(f.Batches, frameSymbols(f)) // noiseless
		ack, err = rcv.HandleFrame(&clean)
		if err != nil {
			t.Fatal(err)
		}
	}
	if !ack.AllDecoded() {
		t.Fatal("noiseless transfer did not decode")
	}
	ack, err = rcv.HandleFrame(&clean)
	if !errors.Is(err, ErrStaleFrame) {
		t.Fatalf("replay err = %v, want ErrStaleFrame", err)
	}
	if !ack.AllDecoded() {
		t.Fatal("stale frame's ACK lost decode state")
	}
	snd.HandleAck(ack)
	if !snd.Done() {
		t.Fatal("sender did not resync from stale frame's ACK")
	}
}

// TestHandleFrameMalformedBatch: an ID/symbol length mismatch is skipped
// with ErrMalformedBatch; intact batches in the same frame still count.
func TestHandleFrameMalformedBatch(t *testing.T) {
	p := linkParams()
	snd := NewSender([]byte("malformed"), p, 0)
	rcv := NewReceiver(p)
	f := snd.NextFrame()
	f.Batches[0].Symbols = f.Batches[0].Symbols[:1] // truncate
	_, err := rcv.HandleFrame(f)
	if !errors.Is(err, ErrMalformedBatch) {
		t.Fatalf("err = %v, want ErrMalformedBatch", err)
	}
}

// TestZeroLengthDatagram: a nil datagram still round-trips (one CRC-only
// block) through sender and receiver directly.
func TestZeroLengthDatagram(t *testing.T) {
	p := linkParams()
	snd := NewSender(nil, p, 0)
	if snd.Blocks() != 1 {
		t.Fatalf("blocks = %d, want 1", snd.Blocks())
	}
	rcv := NewReceiver(p)
	for i := 0; i < 50 && !rcv.Complete(); i++ {
		f := snd.NextFrame()
		if f == nil {
			break
		}
		f.Batches = rebatch(f.Batches, frameSymbols(f))
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
	if len(got) != 0 {
		t.Fatalf("zero-length datagram decoded to %d bytes", len(got))
	}
}
