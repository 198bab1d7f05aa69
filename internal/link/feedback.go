// The feedback path: spinal codes are rateless because the sender keeps
// emitting passes until the receiver says stop, so the reverse (ACK)
// channel is part of the code's operating point. This file models it
// honestly instead of assuming §6's perfect instantaneous feedback: acks
// cross a FeedbackChannel with configurable delay and loss
// (wire-encoded both ways, so the ack codec sits on the live path), and
// the sender reacts through per-block retransmission timers with
// exponential backoff, a bounded in-flight block window, and fast
// continuation when an explicit "still missing" report arrives.
package link

import (
	"math/rand"

	"spinal/internal/framing"
)

// FeedbackConfig describes the reverse (ACK) path and the sender's ARQ
// reaction to it. The zero value with DelayRounds 0 models an ideal but
// still explicit feedback loop: acks cross the queue and arrive the same
// round they were sent.
type FeedbackConfig struct {
	// DelayRounds is the ack delivery delay in engine rounds. Displaced
	// acks come from the fault injector (FaultConfig.AckReorder).
	DelayRounds int
	// Loss is the probability an individual ack is dropped in transit.
	Loss float64
	// RTO is the initial per-block retransmission timeout in rounds
	// (0 ⇒ DelayRounds + 2, just past the earliest possible ack).
	RTO int
	// MaxRTO bounds the exponential backoff (0 ⇒ 8·RTO). A cap below the
	// effective RTO is meaningless — backoff starts there — and clamps
	// up to it.
	MaxRTO int
	// Window bounds the blocks a flow may have transmitted-but-unacked at
	// once (0 ⇒ 8). Blocks beyond it wait their turn.
	Window int
}

func (c FeedbackConfig) rto() int {
	if c.RTO > 0 {
		return c.RTO
	}
	return c.DelayRounds + 2
}

func (c FeedbackConfig) maxRTO() int {
	if c.MaxRTO >= c.rto() {
		return c.MaxRTO
	}
	if c.MaxRTO > 0 {
		return c.rto() // a cap below the base timeout clamps to it
	}
	return 8 * c.rto()
}

func (c FeedbackConfig) window() int {
	if c.Window > 0 {
		return c.Window
	}
	return 8
}

// FeedbackEventKind distinguishes the observable moments of an ack's life.
type FeedbackEventKind int

const (
	// AckSent reports a receiver emitting an ack toward its sender.
	AckSent FeedbackEventKind = iota + 1
	// AckDelivered reports the sender applying a received ack.
	AckDelivered
)

// String names the kind for logs.
func (k FeedbackEventKind) String() string {
	switch k {
	case AckSent:
		return "ack-sent"
	case AckDelivered:
		return "ack-delivered"
	}
	return "unknown"
}

// FeedbackEvent is one observation of a flow's reverse (ACK) path.
// Under a FeedbackConfig, AckSent and AckDelivered for the same ack are
// separated by the channel's delay, and lost acks never deliver. The
// engine's instant per-block default has no explicit acks and emits no
// events.
type FeedbackEvent struct {
	// Flow is the flow whose ack this is.
	Flow FlowID
	// Round is the engine round of the event.
	Round int
	// Kind is what happened.
	Kind FeedbackEventKind
	// Blocks is the flow's code-block count; Decoded how many of them the
	// ack reports decoded.
	Blocks, Decoded int
}

// FeedbackObserver receives feedback-path telemetry from an Engine
// (EngineConfig.Observer). Implementations must not call back into the
// engine; they are invoked synchronously from its single-threaded Step.
type FeedbackObserver interface {
	ObserveFeedback(FeedbackEvent)
}

// FeedbackChannel carries acks from a receiver back to its sender with
// delay and loss. It is single-threaded, like the engine API that
// drives it: Send enqueues, Advance ticks one round and delivers what is
// due. Acks are wire-encoded on Send and decoded on delivery; an ack that
// fails to decode is counted lost (defense in depth — the queue itself
// never corrupts bytes).
type FeedbackChannel struct {
	cfg   FeedbackConfig
	rng   *rand.Rand // loss draws; nil when Loss is 0
	now   int
	queue wireQueue // acks in flight, wire-encoded
	// inj, when non-nil, applies adversarial reverse-path faults
	// (reorder, duplication, truncation, bit flips) to each ack's wire
	// bytes in Send; mangled acks that no longer parse are counted lost
	// on delivery.
	inj *faultInjector

	sent, lost, delivered int
}

// NewFeedbackChannel creates a feedback channel; seed drives the loss
// randomness.
func NewFeedbackChannel(cfg FeedbackConfig, seed int64) *FeedbackChannel {
	f := &FeedbackChannel{cfg: cfg}
	if cfg.Loss > 0 {
		f.rng = rand.New(rand.NewSource(seed ^ 0x666565646261636b)) // "feedback"
	}
	return f
}

// setFaults installs an adversarial-fault injector on the reverse path.
func (f *FeedbackChannel) setFaults(inj *faultInjector) { f.inj = inj }

// Send enqueues an ack for future delivery, or drops it with probability
// Loss. The ack is serialized immediately: what travels is wire bytes —
// which is also where the fault injector, when present, reorders,
// duplicates, truncates and bit-flips them.
func (f *FeedbackChannel) Send(a framing.Ack) {
	f.sent++
	if f.cfg.Loss > 0 && f.rng.Float64() < f.cfg.Loss {
		f.lost++
		return
	}
	delay := f.cfg.DelayRounds
	wire := EncodeAck(a)
	if f.inj != nil && f.inj.cfg.ackFaults() {
		mangled, extra, dup, dupDelay := f.inj.mangleAck(wire)
		if dup != nil {
			f.queue.push(f.now+delay+dupDelay, dup)
		}
		wire, delay = mangled, delay+extra
	}
	f.queue.push(f.now+delay, wire)
}

// Advance ticks one engine round and returns the acks due for delivery,
// in send order among those due. With DelayRounds 0 an ack sent this
// round is delivered by the same round's Advance.
func (f *FeedbackChannel) Advance() []framing.Ack {
	var out []framing.Ack
	f.queue.release(f.now, func(wire []byte) {
		a, err := DecodeAck(wire)
		if err != nil {
			f.lost++
			return
		}
		f.delivered++
		out = append(out, a)
	})
	f.now++
	return out
}

// Counters reports lifetime telemetry: acks sent into the channel, lost
// in transit, and delivered.
func (f *FeedbackChannel) Counters() (sent, lost, delivered int) {
	return f.sent, f.lost, f.delivered
}

// retxTimer is one code block's ARQ state at the sender: when to
// (re)transmit under silence, with exponential backoff bounded by
// [base, maxRTO], and fast continuation when live feedback reports the
// block still missing (a nack resets the backoff — the reverse channel is
// evidently working, so silence-style caution is wrong).
//
// Advancing and committing are split so the engine can consult the rate
// policy between them: advance() only moves time and reports whether a
// transmission is due; nothing is armed, backed off or counted until
// commit() confirms symbols actually flew. A rate policy that vetoes the
// round (SubpassBudget 0) therefore leaves no phantom ARQ state behind —
// the grant simply stays due.
type retxTimer struct {
	base, rto, maxRTO int
	timer             int
	lastTx            int  // round of the most recent committed transmission
	inflight          bool // transmitted at least once, ack still pending
	nacked            bool // latest feedback saw lastTx and lacked the block
	retx              int  // committed timeout retransmissions
}

func newRetxTimer(base, maxRTO int) retxTimer {
	if base < 1 {
		base = 1
	}
	if maxRTO < base {
		maxRTO = base
	}
	return retxTimer{base: base, rto: base, maxRTO: maxRTO}
}

// advance moves one visited round and reports whether the block may
// transmit now, and whether that grant is a timeout retransmission
// (feedback silence) as opposed to a first pass or a nack continuation.
// It commits nothing: an unconsumed grant stays due next round.
func (t *retxTimer) advance() (send, timeout bool) {
	if !t.inflight {
		return true, false
	}
	if t.timer > 0 {
		t.timer--
	}
	if t.timer > 0 {
		return false, false
	}
	return true, !t.nacked
}

// commit records that an advance() grant was actually transmitted at
// round: the timer re-arms, a timeout doubles the backoff (bounded by
// maxRTO), and a consumed nack resets it to base — live feedback
// requested that pass, so silence-style caution would be wrong.
func (t *retxTimer) commit(round int, timeout bool) {
	t.inflight = true
	if timeout {
		t.retx++
		t.rto *= 2
		if t.rto > t.maxRTO {
			t.rto = t.maxRTO
		}
	} else if t.nacked {
		t.nacked = false
		t.rto = t.base
	}
	t.timer = t.rto
	t.lastTx = round
}

// nack handles feedback that postdates lastTx yet still lacks the block:
// the current pass demonstrably did not suffice, so the next one should
// go out on the next round instead of waiting out the timer. The flag is
// recorded even when the countdown is already about to fire — the grant
// was requested by live feedback, and classifying it as a timeout would
// wrongly double the backoff and count a phantom retransmission.
func (t *retxTimer) nack() {
	if !t.inflight {
		return
	}
	if t.timer > 1 {
		t.timer = 1
	}
	t.nacked = true
}
