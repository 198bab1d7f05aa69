// Package link implements the §6 rateless link protocol: a sender
// segments a datagram into CRC-protected code blocks, spinal-encodes each
// block independently, and streams frames of symbols; the receiver
// decodes blocks as symbols accumulate, verifies CRCs, and returns ACKs
// with one bit per code block. Per-batch symbol IDs keep the receiver
// synchronized across lost frames.
//
// The Sender and Receiver are transport-agnostic state machines: the
// examples/filetransfer program drives them over UDP, and the Engine
// multiplexes many of them over a shared medium, fanning each round's
// codec work out across cores. An Engine flow crosses a channel.Model,
// which adds noise and never drops a share; shares are lost only in the
// fault injector (FaultConfig).
package link

import (
	"errors"
	"fmt"
	"math"
	"slices"

	icode "spinal/internal/code"
	"spinal/internal/core"
	"spinal/internal/framing"
)

// Typed errors for degenerate link inputs. Frame-shaped garbage must
// never panic or livelock a state machine; it is reported so transports
// can count or log it, and the returned ACK (when any) stays usable.
var (
	// ErrNilFrame reports a nil frame handed to a receiver.
	ErrNilFrame = errors.New("link: nil frame")
	// ErrBadLayout reports a frame whose code-block layout is empty,
	// non-positive, or absurdly large.
	ErrBadLayout = errors.New("link: invalid code-block layout")
	// ErrMalformedBatch reports a batch whose symbol and ID counts
	// disagree; the batch is skipped.
	ErrMalformedBatch = errors.New("link: batch symbol/ID length mismatch")
	// ErrBadSymbolID reports a batch carrying a symbol ID outside its
	// block's spine — feeding it to a decoder would index out of range, so
	// the batch is skipped. (Found by FuzzHandleFrame.)
	ErrBadSymbolID = errors.New("link: symbol ID outside the block's spine")
	// ErrBadSymbol reports a batch carrying a non-finite or absurdly large
	// symbol value. Signal power is normalized to 1 throughout the
	// repository, so a sample 120 dB above it is frame-shaped garbage, and
	// worse: NaN branch costs poison every comparison in the beam search,
	// and values past ~1e154 overflow the squared-distance metric to +Inf
	// — either way the beam emptied and the decoder crashed (found by
	// FuzzHandleFrame). Such batches are skipped.
	ErrBadSymbol = errors.New("link: non-finite or out-of-range symbol value")
	// ErrStaleFrame reports a frame all of whose batches reference
	// already-decoded (or out-of-range) blocks. The ACK returned with it
	// is valid — resending it is exactly how the sender catches up.
	ErrStaleFrame = errors.New("link: frame carries no batch for an outstanding block")
	// ErrBlockFull reports a batch whose symbols would grow a block's
	// accumulator past its bound. Reordered, duplicated or hostile
	// traffic must not grow receiver memory without limit, so symbols
	// past the cap are dropped and counted; a block this starved resolves
	// through the flow's round budget, not an allocation storm.
	ErrBlockFull = errors.New("link: block symbol accumulator full")
	// ErrIncomplete reports a datagram read before every block decoded.
	ErrIncomplete = errors.New("link: datagram incomplete")
)

// maxLayoutBits caps a single code block's advertised size; a frame
// claiming more is treated as corrupt rather than sizing a decoder.
const maxLayoutBits = 1 << 20

// maxSymbolMagnitude bounds accepted per-dimension sample values: unit
// signal power means anything 120 dB above it is corrupt, and the bound
// keeps squared-distance branch costs finite for any accumulator size.
const maxSymbolMagnitude = 1e6

// maxAccumSymbols bounds one block's symbol accumulator. The deepest
// legitimate accumulation — a maximum-size block trickling subpasses for
// an entire default round budget — stays well under it, while replayed
// and reordered traffic (or a hostile peer streaming symbols forever)
// hits ErrBlockFull instead of growing receiver memory without bound.
const maxAccumSymbols = 1 << 16

// Batch carries one code block's symbols within a frame. The SymbolIDs
// are derivable from the frame sequence number and the shared schedule
// (§6); they are carried explicitly here for simulation clarity.
type Batch struct {
	Block   int
	IDs     []core.SymbolID
	Symbols []complex128
}

// Frame is one link-layer transmission: a sequence number plus one batch
// per not-yet-acknowledged code block.
type Frame struct {
	Seq       uint32
	BlockBits []int // layout of the datagram's code blocks, in bits
	Batches   []Batch
}

// SymbolCount reports the number of channel symbols in the frame.
func (f *Frame) SymbolCount() int {
	n := 0
	for _, b := range f.Batches {
		n += len(b.Symbols)
	}
	return n
}

// Sender streams a datagram as rateless frames. It keeps the block bits,
// per-block schedules and one encoder per block, built on the block's
// first batch (by NextFrame standalone, in the encode fan-out under an
// Engine). The code is any icode.Code — the protocol machinery is
// code-agnostic.
type Sender struct {
	code     icode.Code
	blocks   []framing.Block
	bits     [][]byte // serialized block bits (payload + CRC)
	encs     []icode.Encoder
	scheds   []icode.Schedule
	acked    []bool
	seq      uint32
	symbols  int
	perBlock []int // per-block symbol counts (rate-adaptation input)
}

// NewSender segments the datagram into spinal code blocks of at most
// maxBlockBits (0 ⇒ the §6 default of 1024) and prepares the schedules.
// A zero-length datagram is legal: it becomes a single CRC-only block.
func NewSender(datagram []byte, p core.Params, maxBlockBits int) *Sender {
	return NewCodeSender(icode.Spinal(p), datagram, maxBlockBits)
}

// NewCodeSender is NewSender over an arbitrary channel code.
func NewCodeSender(c icode.Code, datagram []byte, maxBlockBits int) *Sender {
	blocks := framing.Segment(datagram, maxBlockBits)
	s := &Sender{
		code:     c,
		blocks:   blocks,
		bits:     make([][]byte, len(blocks)),
		encs:     make([]icode.Encoder, len(blocks)),
		scheds:   make([]icode.Schedule, len(blocks)),
		acked:    make([]bool, len(blocks)),
		perBlock: make([]int, len(blocks)),
	}
	for i, b := range blocks {
		s.bits[i] = b.Bits()
		s.scheds[i] = c.NewSchedule(b.NumBits())
	}
	return s
}

// Blocks reports the number of code blocks.
func (s *Sender) Blocks() int { return len(s.blocks) }

// Done reports whether every block has been acknowledged.
func (s *Sender) Done() bool {
	for _, a := range s.acked {
		if !a {
			return false
		}
	}
	return true
}

// SymbolsSent reports the cumulative number of symbols transmitted.
func (s *Sender) SymbolsSent() int { return s.symbols }

// batchIDs advances block i's schedule by subpasses (≥ 1), counts the
// fresh symbols as transmitted, and returns a batch of their IDs with no
// symbols attached (the Engine fills those in its encode fan-out). A
// single subpass's slice is returned as the schedule made it.
func (s *Sender) batchIDs(i, subpasses int) Batch {
	sc := s.scheds[i]
	ids := sc.NextSubpass()
	if subpasses > 1 {
		// Room for every pass the batch touches (w consecutive subpasses
		// of a w-way pass carry one pass's symbols), so the appends below
		// rarely regrow.
		passes := (subpasses + sc.Subpasses() - 1) / sc.Subpasses()
		ids = slices.Grow(ids, passes*sc.SymbolsPerPass()-len(ids))
		for sp := 1; sp < subpasses; sp++ {
			ids = append(ids, sc.NextSubpass()...)
		}
	}
	s.symbols += len(ids)
	s.perBlock[i] += len(ids)
	return Batch{Block: i, IDs: ids}
}

// symbolsFor reports the symbols transmitted so far for block i.
func (s *Sender) symbolsFor(i int) int { return s.perBlock[i] }

// encoder returns the sender's encoder for block i, built on first use.
func (s *Sender) encoder(i int) icode.Encoder {
	if s.encs[i] == nil {
		s.encs[i] = s.code.NewEncoder(s.bits[i], s.blocks[i].NumBits())
	}
	return s.encs[i]
}

// NextFrame emits the next frame: one subpass of fresh symbols for every
// unacknowledged block. It returns nil when all blocks are acknowledged.
func (s *Sender) NextFrame() *Frame {
	if s.Done() {
		return nil
	}
	f := &Frame{Seq: s.seq, BlockBits: make([]int, len(s.blocks))}
	for i, b := range s.blocks {
		f.BlockBits[i] = b.NumBits()
	}
	s.seq++
	for i := range s.blocks {
		if s.acked[i] {
			continue
		}
		b := s.batchIDs(i, 1)
		b.Symbols = s.encoder(i).Symbols(b.IDs)
		f.Batches = append(f.Batches, b)
	}
	return f
}

// HandleAck marks acknowledged blocks. Stale ACKs (older seq) are still
// applied: a block once decoded stays decoded.
func (s *Sender) HandleAck(a framing.Ack) {
	for i, ok := range a.Decoded {
		if i < len(s.acked) && ok {
			s.acked[i] = true
		}
	}
}

// rxBlock is a receiver's per-block state: the symbols accumulated so far
// (replayed into a cached decoder at each attempt) and, once the CRC
// verifies, the decoded payload. seen deduplicates symbol observations
// by ID, so replayed frames (ARQ duplicates, adversarial replay) are
// no-ops; it is nil until the first symbol and recycled once the block
// decodes. dups and overflow count what dedup and the accumulator bound
// dropped; attempts, narrow and escalations count decode attempts, those
// that began on a narrow rung, and narrow rungs the CRC rejected.
type rxBlock struct {
	nBits       int
	ids         []core.SymbolID
	syms        []complex128
	seen        *symbolSet
	dirty       bool // new symbols since the last decode attempt
	got         bool
	payload     []byte
	dups        int // duplicate symbol observations dropped
	overflow    int // symbols dropped at the accumulator bound
	attempts    int
	narrow      int
	escalations int
}

// Receiver reassembles a datagram from rateless frames. It owns no
// decoders bound to blocks: accumulated symbols live in per-block state,
// and each decode attempt replays them into a reset decoder — from its
// own per-block-size cache standalone, or from a fan-out slot's under
// the Engine. A datagram of a hundred blocks therefore needs a hundred
// symbol accumulators but only one decoder per distinct block size.
type Receiver struct {
	code   icode.Code
	blocks []rxBlock
	dec    worker // standalone decoder cache
}

// NewReceiver creates a receiver with the same spinal code parameters as
// the sender.
func NewReceiver(p core.Params) *Receiver {
	return NewCodeReceiver(icode.Spinal(p))
}

// NewCodeReceiver is NewReceiver over an arbitrary channel code; it must
// match the sender's.
func NewCodeReceiver(c icode.Code) *Receiver {
	return &Receiver{code: c, dec: worker{code: c}}
}

// init adopts the frame-advertised block layout.
func (r *Receiver) init(layout []int) error {
	if len(layout) == 0 {
		return ErrBadLayout
	}
	for _, nb := range layout {
		if nb <= 0 || nb > maxLayoutBits {
			return fmt.Errorf("%w: block of %d bits", ErrBadLayout, nb)
		}
	}
	r.blocks = make([]rxBlock, len(layout))
	for i, nb := range layout {
		r.blocks[i].nBits = nb
	}
	return nil
}

// accumulate stores a batch's symbols into its block accumulator. It
// reports whether the batch addressed an outstanding block (even with
// zero symbols — short blocks under wide puncturing have empty
// subpasses); a length mismatch between IDs and symbols yields
// ErrMalformedBatch.
func (r *Receiver) accumulate(b *Batch) (bool, error) {
	if b.Block < 0 || b.Block >= len(r.blocks) {
		return false, nil
	}
	blk := &r.blocks[b.Block]
	if blk.got {
		return false, nil
	}
	if len(b.IDs) != len(b.Symbols) {
		return true, ErrMalformedBatch
	}
	// Decoder accumulators are indexed by Chunk; an ID a corrupt frame
	// attributes to a nonexistent chunk must be rejected here, not panic
	// in the decoder during replay.
	ns := r.code.Chunks(blk.nBits)
	for _, id := range b.IDs {
		if id.Chunk < 0 || id.Chunk >= ns {
			return true, ErrBadSymbolID
		}
	}
	for _, s := range b.Symbols {
		re, im := real(s), imag(s)
		if math.IsNaN(re) || math.IsNaN(im) ||
			re < -maxSymbolMagnitude || re > maxSymbolMagnitude ||
			im < -maxSymbolMagnitude || im > maxSymbolMagnitude {
			return true, ErrBadSymbol
		}
	}
	if len(b.IDs) == 0 {
		return true, nil
	}
	if blk.seen == nil {
		blk.seen = symbolSets.Get().(*symbolSet)
	}
	// Reserve room for the whole batch first, as a bulk append would:
	// growing one symbol at a time reallocates far more often.
	blk.ids = slices.Grow(blk.ids, len(b.IDs))
	blk.syms = slices.Grow(blk.syms, len(b.Symbols))
	for j, id := range b.IDs {
		// A symbol ID already observed is a replay (retransmitted passes
		// carry fresh IDs, so legitimate traffic never repeats one):
		// delivering any frame k times must be a no-op beyond the
		// counter.
		if blk.seen.has(id) {
			blk.dups++
			continue
		}
		// Every stored symbol enters both the accumulator and the dedup
		// set, so the two counts agree; the set is bounded on its own
		// anyway, so that its memory does not rest on that agreement.
		if len(blk.ids) >= maxAccumSymbols || blk.seen.n >= maxAccumSymbols {
			blk.overflow += len(b.IDs) - j
			return true, ErrBlockFull
		}
		blk.seen.add(id)
		blk.ids = append(blk.ids, id)
		blk.syms = append(blk.syms, b.Symbols[j])
		blk.dirty = true
	}
	return true, nil
}

// attempt replays block i's accumulated symbols into dec (which must be
// freshly reset) and decodes them, reporting whether the block newly
// verified. A decoder with a narrow rung (icode.NarrowDecoder) tries it
// first and escalates to Decode, on the same symbols, only when the CRC
// rejects the narrow message. On success the accumulators are released.
func (r *Receiver) attempt(i int, dec icode.Decoder) bool {
	blk := &r.blocks[i]
	blk.dirty = false
	blk.attempts++
	dec.Add(blk.ids, blk.syms)
	if nd, ok := dec.(icode.NarrowDecoder); ok {
		if decoded, ok := nd.DecodeNarrow(); ok {
			blk.narrow++
			if blk.accept(decoded) {
				return true
			}
			blk.escalations++
		}
	}
	decoded, _ := dec.Decode()
	return blk.accept(decoded)
}

// accept verifies a decoded candidate and, when its CRC checks, marks
// the block decoded and releases its accumulators.
func (blk *rxBlock) accept(decoded []byte) bool {
	payload, ok := framing.Verify(decoded)
	if !ok {
		return false
	}
	blk.got = true
	// payload aliases the decoder's reusable result buffer; copy before
	// retaining it for reassembly.
	blk.payload = append([]byte(nil), payload...)
	blk.seen.release()
	blk.ids, blk.syms, blk.seen = nil, nil, nil
	return true
}

// ack snapshots the per-block decode state.
func (r *Receiver) ack(seq uint32) framing.Ack {
	decoded := make([]bool, len(r.blocks))
	for i := range r.blocks {
		decoded[i] = r.blocks[i].got
	}
	return framing.Ack{Seq: seq, Decoded: decoded}
}

// HandleFrame ingests a (possibly noisy) frame and returns the ACK to
// send back. Frames may arrive with gaps in Seq; the per-batch SymbolIDs
// keep the decoders synchronized, modeling §6's protected sequence
// number.
//
// Degenerate frames return a typed error alongside a best-effort ACK: a
// frame whose batches are all for already-decoded blocks yields
// ErrStaleFrame (the ACK still tells the sender to stop), and malformed
// input yields ErrNilFrame, ErrBadLayout or ErrMalformedBatch. Only the
// nil-frame and bad-layout cases leave the ACK empty.
func (r *Receiver) HandleFrame(f *Frame) (framing.Ack, error) {
	if f == nil {
		return framing.Ack{}, ErrNilFrame
	}
	if r.blocks == nil {
		if err := r.init(f.BlockBits); err != nil {
			return framing.Ack{}, err
		}
	}
	var err error
	progress := false
	for i := range f.Batches {
		ok, aerr := r.accumulate(&f.Batches[i])
		if ok {
			progress = true
		}
		if aerr != nil && err == nil {
			err = aerr
		}
	}
	if !progress && len(f.Batches) > 0 && err == nil {
		err = ErrStaleFrame
	}
	for i := range r.blocks {
		blk := &r.blocks[i]
		if blk.got || !blk.dirty {
			continue
		}
		r.attempt(i, r.dec.decoder(blk.nBits))
	}
	return r.ack(f.Seq), err
}

// Complete reports whether every block has been decoded.
func (r *Receiver) Complete() bool {
	if r.blocks == nil {
		return false
	}
	for i := range r.blocks {
		if !r.blocks[i].got {
			return false
		}
	}
	return true
}

// Datagram reassembles the received payload; it returns ErrIncomplete if
// blocks are missing.
func (r *Receiver) Datagram() ([]byte, error) {
	if !r.Complete() {
		return nil, ErrIncomplete
	}
	payloads := make([][]byte, len(r.blocks))
	for i := range r.blocks {
		payloads[i] = r.blocks[i].payload
	}
	return framing.Reassemble(payloads), nil
}

// Stats summarizes a completed transfer.
type Stats struct {
	Frames      int
	SymbolsSent int
	Blocks      int
	// Retransmissions counts timeout-triggered retransmissions across the
	// flow's blocks — passes sent into feedback silence. Nack
	// continuations are ordinary rateless progress and are not counted.
	// Zero under the instant perfect-feedback default.
	Retransmissions int
	// AcksSent/AcksLost count reverse-channel traffic when the engine
	// runs with a FeedbackConfig (zero otherwise).
	AcksSent, AcksLost int
	// AckSymbols is the reverse-channel airtime charged to the flow, in
	// symbols, under half-duplex accounting
	// (EngineConfig.HalfDuplex; zero otherwise).
	AckSymbols int
	// BatchesRejected counts batches the receiver dropped with a typed
	// error (ErrMalformedBatch, ErrBadSymbolID, ErrBadSymbol,
	// ErrBlockFull) — counted-and-dropped input, not silence.
	BatchesRejected int
	// SymbolsDeduped counts replayed symbol observations the receiver's
	// per-ID dedup dropped (duplicate frames are no-ops beyond this
	// counter).
	SymbolsDeduped int
	// SymbolsOverflowed counts symbols dropped at the per-block
	// accumulator bound (ErrBlockFull's victims).
	SymbolsOverflowed int
	// DecodeAttempts counts block decode attempts: one per block per
	// round that brought it new symbols. NarrowAttempts counts the
	// attempts that began on the decoder's narrow rung (spinal at
	// B/4 ≥ 64), and Escalations those whose narrow message failed the
	// CRC and were decoded again at the full width on the same symbols.
	// Escalations ≤ NarrowAttempts ≤ DecodeAttempts.
	DecodeAttempts, NarrowAttempts, Escalations int
	// Faults counts the faults injected into the flow's forward and
	// reverse paths when the engine runs with a FaultConfig
	// (EngineConfig.Faults; zero otherwise).
	Faults FaultStats
	// Rate is datagram bits per channel symbol, CRC overhead included in
	// the denominator's favour (it counts only payload bits). Under
	// half-duplex accounting the denominator also includes AckSymbols.
	Rate float64
}

// add adds o's counters into s, field by field (Engine.Metrics'
// running total). Rate is not a counter and is left alone.
func (s *Stats) add(o Stats) {
	s.Frames += o.Frames
	s.SymbolsSent += o.SymbolsSent
	s.Blocks += o.Blocks
	s.Retransmissions += o.Retransmissions
	s.AcksSent += o.AcksSent
	s.AcksLost += o.AcksLost
	s.AckSymbols += o.AckSymbols
	s.BatchesRejected += o.BatchesRejected
	s.SymbolsDeduped += o.SymbolsDeduped
	s.SymbolsOverflowed += o.SymbolsOverflowed
	s.DecodeAttempts += o.DecodeAttempts
	s.NarrowAttempts += o.NarrowAttempts
	s.Escalations += o.Escalations
	s.Faults.add(o.Faults)
}

func (s Stats) String() string {
	return fmt.Sprintf("frames=%d symbols=%d blocks=%d rate=%.3f b/sym",
		s.Frames, s.SymbolsSent, s.Blocks, s.Rate)
}
