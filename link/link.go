// Package link is the public link-layer API of the spinal-code library:
// the §6 rateless protocol (CRC-protected code blocks, rateless symbol
// frames, one-bit-per-block acks) grown into a multi-flow engine with
// rate adaptation, realistic ARQ feedback, and half-duplex ack airtime
// accounting — all behind a small composable façade.
//
// # Session
//
// Session is the front door: a multi-flow link over a shared medium,
// configured with functional options and driven with context-aware
// Step/Drain:
//
//	s, err := link.NewSession(spinal.DefaultParams(),
//		link.WithChannel(channel.NewAWGN(10, 1)),
//		link.WithRatePolicyFunc(func() link.RatePolicy { return link.NewTrackingRate(10) }),
//	)
//	id, _ := s.Send(datagram)
//	results, err := s.Drain(ctx)
//
// # Conn
//
// Conn wraps a Session pair into an io.Reader/io.Writer: every Write
// crosses the configured channel.Model as one rateless datagram and the
// delivered bytes become readable, so a spinal link drops into any
// byte-stream plumbing.
//
// # Extension interfaces
//
// Two small interfaces are the stable plug-in points — implement them
// in your own package and pass them through options, no internal imports
// needed:
//
//   - RatePolicy (optionally RateObserver) paces how fast a flow walks
//     its symbol schedule each round — CapacityRate's per-round burst
//     with WithHalfDuplex is §6's half-duplex sender, one charged ack
//     turnaround per burst;
//   - FeedbackObserver taps reverse-channel telemetry.
//
// The concrete types here are aliases of the engine-internal
// implementations, so the public surface and the engine cannot drift
// apart; see docs/API.md for the stability guarantees.
package link

import (
	"spinal"
	"spinal/internal/framing"
	ilink "spinal/internal/link"
)

// FlowID identifies one datagram in flight through a Session.
type FlowID = ilink.FlowID

// Result reports a resolved flow: its reassembled datagram on success,
// or a typed error (ErrFlowBudget) on give-up, plus transfer statistics.
type Result = ilink.FlowResult

// Stats summarizes a flow's transfer: frames, symbols, blocks, ARQ and
// half-duplex accounting, and the achieved rate in bits per symbol.
type Stats = ilink.Stats

// RatePolicy paces one flow: how many fresh puncturing subpasses (§5)
// each outstanding code block transmits in the coming round. Implement
// it to plug your own rate adaptation into a Session.
type RatePolicy = ilink.RatePolicy

// RateObserver is the optional feedback half of a RatePolicy: policies
// that implement it are told every decoded block's bit count and total
// symbol spend, and can track a time-varying channel.
type RateObserver = ilink.RateObserver

// FeedbackObserver receives reverse-channel telemetry (FeedbackEvent)
// from a Session configured with WithFeedbackObserver.
type FeedbackObserver = ilink.FeedbackObserver

// FeedbackEvent is one observation of a flow's reverse (ACK) path.
type FeedbackEvent = ilink.FeedbackEvent

// FeedbackEventKind distinguishes the observable moments of an ack's
// life: AckSent and AckDelivered.
type FeedbackEventKind = ilink.FeedbackEventKind

// Feedback event kinds.
const (
	AckSent      = ilink.AckSent
	AckDelivered = ilink.AckDelivered
)

// FixedRate transmits a constant number of subpasses per block per round.
type FixedRate = ilink.FixedRate

// CapacityRate opens each block with a burst sized from a (possibly
// stale) SNR estimate, then trickles geometric increments.
type CapacityRate = ilink.CapacityRate

// TrackingRate is a closed-loop RatePolicy for time-varying channels: it
// paces like CapacityRate but moves its SNR estimate with every decoded
// block. Stateful — give each flow its own (see WithRatePolicyFunc).
type TrackingRate = ilink.TrackingRate

// NewTrackingRate creates a tracking policy starting from initialSNRdB.
func NewTrackingRate(initialSNRdB float64) *TrackingRate { return ilink.NewTrackingRate(initialSNRdB) }

// SchedulerConfig selects deficit-weighted fair queuing for the
// session's admission phase (see WithScheduler): Quantum is the symbol
// credit one unit of flow weight earns per round, Burst caps how many
// rounds of credit an idle flow can bank.
type SchedulerConfig = ilink.SchedulerConfig

// SchedulerStats is the DWFQ scheduler's accounting (Metrics.Scheduler).
type SchedulerStats = ilink.SchedulerStats

// Metrics is a session's running totals since it started: flow counts
// (Admitted == Active + Delivered + Failed), bytes delivered, every
// resolved flow's Stats summed (Totals), decoders built and the DWFQ
// scheduler's accounting. See Session.Metrics.
type Metrics = ilink.Metrics

// FeedbackConfig describes the reverse (ACK) path and the sender's ARQ
// reaction to it: delivery delay and loss, retransmission timeouts
// and the in-flight window. The receiver always chase-combines: symbols
// from failed attempts are kept for the next one.
type FeedbackConfig = ilink.FeedbackConfig

// HalfDuplexConfig prices reverse-channel (ack) airtime on a shared
// half-duplex medium (see WithHalfDuplex).
type HalfDuplexConfig = ilink.HalfDuplexConfig

// FaultConfig parameterizes deterministic adversarial-link fault
// injection — reorder, duplication, truncation, bit-flip corruption and
// bursty blackout on the forward path, plus reverse-path counterparts
// for acks (see WithFaults). The zero value injects nothing; Scale
// derives intensity sweeps.
type FaultConfig = ilink.FaultConfig

// FaultStats counts the faults injected into one flow, by direction and
// kind (Stats.Faults).
type FaultStats = ilink.FaultStats

// Sender is the transport-agnostic §6 sending state machine: it segments
// a datagram into CRC-protected code blocks and streams rateless frames.
// Session drives Senders internally; use one directly (with Receiver and
// the wire codec) to put a spinal link on your own transport.
type Sender = ilink.Sender

// Receiver is the §6 receiving state machine: it accumulates symbols per
// block, decodes as they suffice, and answers every frame with an Ack.
type Receiver = ilink.Receiver

// NewSender segments the datagram into code blocks of at most
// maxBlockBits (0 ⇒ the §6 default of 1024) and prepares the schedules.
func NewSender(datagram []byte, p spinal.Params, maxBlockBits int) *Sender {
	return ilink.NewSender(datagram, p, maxBlockBits)
}

// NewReceiver creates a receiver with the same code parameters as the
// sender.
func NewReceiver(p spinal.Params) *Receiver { return ilink.NewReceiver(p) }

// Frame is one link-layer transmission: a sequence number plus one batch
// per not-yet-acknowledged code block.
type Frame = ilink.Frame

// Batch carries one code block's symbols within a frame.
type Batch = ilink.Batch

// Ack is the receiver's reply: one bit per code block, behind the
// sequence number it acknowledges.
type Ack = framing.Ack

// EncodeFrame serializes a frame to its compact binary wire form.
func EncodeFrame(f *Frame) []byte { return ilink.EncodeFrame(f) }

// DecodeFrame parses a wire-format frame; structurally hostile bytes
// yield ErrBadWire, never a panic or unbounded allocation.
func DecodeFrame(data []byte) (*Frame, error) { return ilink.DecodeFrame(data) }

// EncodeAck serializes an ack, choosing the smaller of the bitmap and
// per-block selective wire variants.
func EncodeAck(a Ack) []byte { return ilink.EncodeAck(a) }

// DecodeAck parses a wire-format ack; the parser is strict, so
// EncodeAck∘DecodeAck is the identity on every accepted input.
func DecodeAck(data []byte) (Ack, error) { return ilink.DecodeAck(data) }

// Typed errors, re-exported so callers can errors.Is against the public
// package alone.
var (
	// ErrFlowBudget reports a flow that exhausted its round budget before
	// every code block decoded.
	ErrFlowBudget = ilink.ErrFlowBudget
	// ErrDeadline reports a flow that missed its WithDeadline round
	// deadline before every code block decoded.
	ErrDeadline = ilink.ErrDeadline
	// ErrNilFrame reports a nil frame handed to a receiver.
	ErrNilFrame = ilink.ErrNilFrame
	// ErrBadLayout reports a frame with an invalid code-block layout.
	ErrBadLayout = ilink.ErrBadLayout
	// ErrMalformedBatch reports a batch whose symbol and ID counts
	// disagree.
	ErrMalformedBatch = ilink.ErrMalformedBatch
	// ErrBadSymbolID reports a batch carrying a symbol ID outside its
	// block's spine.
	ErrBadSymbolID = ilink.ErrBadSymbolID
	// ErrBadSymbol reports a non-finite or absurdly large symbol value.
	ErrBadSymbol = ilink.ErrBadSymbol
	// ErrStaleFrame reports a frame carrying no batch for an outstanding
	// block; the ACK returned with it is still valid.
	ErrStaleFrame = ilink.ErrStaleFrame
	// ErrBlockFull reports symbols dropped at a block's accumulator
	// bound — replayed or hostile traffic cannot grow receiver memory
	// without limit.
	ErrBlockFull = ilink.ErrBlockFull
	// ErrIncomplete reports a datagram read before every block decoded.
	ErrIncomplete = ilink.ErrIncomplete
	// ErrBadWire reports bytes that do not parse as a frame.
	ErrBadWire = ilink.ErrBadWire
	// ErrBadAckWire reports bytes that do not parse as an ack.
	ErrBadAckWire = ilink.ErrBadAckWire
)
