package link

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"spinal"
	"spinal/channel"
	"spinal/code"
	ilink "spinal/internal/link"
)

// ErrClosed reports an operation on a closed Session or Conn (including
// a second Close — daemons that tear a connection down from two paths
// learn which one was late instead of racing).
var ErrClosed = errors.New("link: session closed")

// ErrDraining reports an operation that arrived while another goroutine
// holds the session in Drain: admitting or stepping mid-drain has no
// coherent semantics, so the session rejects it with a typed error
// instead of interleaving rounds.
var ErrDraining = errors.New("link: session draining")

// config accumulates the effect of Options. One struct serves both
// scopes: NewSession reads the engine fields and keeps the flow fields
// as per-Send defaults; Send applies flow-scoped options on top of those
// defaults and rejects session-scoped ones.
type config struct {
	engine ilink.EngineConfig
	flow   flowConfig
	// sessionOnly names the session-scoped options applied, so Send can
	// reject them with a useful message.
	sessionOnly []string
}

// flowConfig is the flow-scoped option state.
type flowConfig struct {
	channel   channel.Model
	rate      RatePolicy
	rateFn    func() RatePolicy
	maxRounds int
	weight    int
	priority  int
	deadline  int
}

// Option configures a Session (at NewSession) or one flow (at Send).
// Each option documents its scope; Send returns an error when handed a
// session-scoped option.
type Option func(*config)

// WithChannel routes flows through model (nil means noiseless). The
// medium adds noise and never drops a share; for lost shares use
// WithFaults (Blackout with BlackoutRounds 1 is an independent per-round
// share erasure). Flow- or session-scoped (a session-scoped model is
// shared by every flow that does not override it — fine for stateless
// media, but per-flow models see an interleaved symbol stream; pass
// per-flow channels at Send when that matters).
func WithChannel(model channel.Model) Option {
	return func(c *config) { c.flow.channel = model }
}

// WithRatePolicy paces flows with p. Flow- or session-scoped; a
// session-scoped policy is shared by every flow, which is only correct
// for stateless policies (FixedRate, CapacityRate) — for stateful ones
// like TrackingRate use WithRatePolicyFunc, or pass a fresh policy to
// each Send.
func WithRatePolicy(p RatePolicy) Option {
	return func(c *config) { c.flow.rate, c.flow.rateFn = p, nil }
}

// WithRatePolicyFunc installs a session-wide rate-policy factory: every
// flow admitted without its own WithRatePolicy gets f()'s fresh policy,
// making stateful policies safe as a session default.
func WithRatePolicyFunc(f func() RatePolicy) Option {
	return func(c *config) { c.flow.rateFn, c.flow.rate = f, nil }
}

// WithMaxRounds bounds a flow's lifetime in scheduling rounds before it
// resolves with ErrFlowBudget (0 keeps the engine default of 512). Flow-
// or session-scoped.
func WithMaxRounds(n int) Option {
	return func(c *config) {
		c.engine.MaxRounds = n
		c.flow.maxRounds = n
	}
}

// WithWeight sets a flow's share of the link under WithScheduler: a
// weight-2 flow earns twice the per-round symbol credit of a weight-1
// flow (0 ⇒ 1). Ignored under the default round-robin admission. Flow-
// or session-scoped.
func WithWeight(w int) Option {
	return func(c *config) { c.flow.weight = w }
}

// WithPriority puts a flow in a strict scheduling class under
// WithScheduler: each round serves higher classes before lower ones
// (and can starve them — use WithWeight within a class for proportional
// sharing). Ignored under round-robin. Flow- or session-scoped.
func WithPriority(p int) Option {
	return func(c *config) { c.flow.priority = p }
}

// WithDeadline resolves a flow with ErrDeadline once it has aged n
// rounds without completing; under WithScheduler, deadline flows are
// additionally served earliest-deadline-first within their priority
// class. 0 means no deadline. Flow- or session-scoped.
func WithDeadline(n int) Option {
	return func(c *config) { c.flow.deadline = n }
}

// WithScheduler replaces the engine's round-robin admission with
// deficit-weighted fair queuing: per-flow weights (WithWeight), strict
// priority classes (WithPriority), optional deadlines (WithDeadline),
// and quantum-based credit accounting over symbol spend — so elephants
// cannot starve mice, and under WithHalfDuplex each ack's reverse
// airtime is debited from the flow that caused it. Session-scoped.
func WithScheduler(sc SchedulerConfig) Option {
	return func(c *config) {
		c.engine.Scheduler = &sc
		c.sessionOnly = append(c.sessionOnly, "WithScheduler")
	}
}

// WithFeedback replaces §6's instant perfect per-block acks with an
// explicit reverse channel: acks cross a queue with the configured
// delay and loss and the sender paces blocks with retransmission
// timers, backoff and a bounded in-flight window. Session-scoped.
func WithFeedback(fc FeedbackConfig) Option {
	return func(c *config) {
		c.engine.Feedback = &fc
		c.sessionOnly = append(c.sessionOnly, "WithFeedback")
	}
}

// WithFeedbackObserver taps the session's reverse-channel telemetry:
// o sees every ack a receiver emits and every ack a sender applies.
// Session-scoped.
func WithFeedbackObserver(o FeedbackObserver) Option {
	return func(c *config) {
		c.engine.Observer = o
		c.sessionOnly = append(c.sessionOnly, "WithFeedbackObserver")
	}
}

// WithHalfDuplex charges reverse-channel airtime against the flows that
// cause it, as on a real shared half-duplex medium: each ack's wire
// bytes are converted to symbols at bitsPerAckSymbol (0 ⇒ 2, QPSK-like),
// reported in Stats.AckSymbols, and included in Stats.Rate's denominator.
// Session-scoped.
func WithHalfDuplex(bitsPerAckSymbol int) Option {
	return func(c *config) {
		c.engine.HalfDuplex = &ilink.HalfDuplexConfig{AckBitsPerSymbol: bitsPerAckSymbol}
		c.sessionOnly = append(c.sessionOnly, "WithHalfDuplex")
	}
}

// WithCode runs every flow of the session over cd — any spinal/code
// implementation: code.Spinal (the same symbols and decodes as the
// default), or a §8 baseline from spinal/baseline (Raptor, Strider,
// turbo, the rate-switching LDPC shim). Every code takes the same path:
// senders own one encoder per block, and each round's decodes draw cd's
// decoders from per-block-size caches. The whole scenario surface — channels, rate
// policies, delayed/lossy feedback, half-duplex accounting, fault
// injection — works unchanged over any code. Session-scoped.
func WithCode(cd code.Code) Option {
	return func(c *config) {
		c.engine.Code = cd
		c.sessionOnly = append(c.sessionOnly, "WithCode")
	}
}

// WithCodecPool bounds the goroutines a round's codec work runs on: the
// goroutine that steps the session plus up to shards − 1 helpers that
// live for one round's encode or decode (0 ⇒ GOMAXPROCS). 1 runs every
// round on the caller's goroutine. Session-scoped.
func WithCodecPool(shards int) Option {
	return func(c *config) {
		c.engine.Shards = shards
		c.sessionOnly = append(c.sessionOnly, "WithCodecPool")
	}
}

// WithMaxBlockBits bounds the code blocks datagrams are segmented into
// (0 ⇒ the §6 default of 1024). Session-scoped.
func WithMaxBlockBits(n int) Option {
	return func(c *config) {
		c.engine.MaxBlockBits = n
		c.sessionOnly = append(c.sessionOnly, "WithMaxBlockBits")
	}
}

// WithFrameSymbols sets the shared-frame symbol budget — the
// backpressure point at which remaining flows wait for the next round
// (0 ⇒ 4096). Session-scoped.
func WithFrameSymbols(n int) Option {
	return func(c *config) {
		c.engine.FrameSymbols = n
		c.sessionOnly = append(c.sessionOnly, "WithFrameSymbols")
	}
}

// WithSeed seeds the session's randomness (ack loss under WithFeedback,
// the fault injector under WithFaults). Session-scoped.
func WithSeed(seed int64) Option {
	return func(c *config) {
		c.engine.Seed = seed
		c.sessionOnly = append(c.sessionOnly, "WithSeed")
	}
}

// WithFaults runs every flow's traffic through a deterministic
// adversarial fault injector: each round's forward frame share may be
// reordered, duplicated, truncated, bit-flipped or swallowed by a
// blackout burst, and — under WithFeedback — each ack suffers the
// configured reverse-path counterparts. Faults are seeded (from fc.Seed,
// WithSeed and the flow ID), counted in Stats.Faults, and applied to
// wire bytes, so the strict parsers and typed-error paths are exercised
// on the live path. Session-scoped.
func WithFaults(fc FaultConfig) Option {
	return func(c *config) {
		c.engine.Faults = &fc
		c.sessionOnly = append(c.sessionOnly, "WithFaults")
	}
}

// WithInvariantChecks asserts the engine's conservation laws (flow
// conservation, ack monotonicity, window and memory bounds, symbol
// accounting) after every Step, panicking with a diagnostic on the first
// violation. Intended for tests and chaos soaks. Session-scoped.
func WithInvariantChecks() Option {
	return func(c *config) {
		c.engine.CheckInvariants = true
		c.sessionOnly = append(c.sessionOnly, "WithInvariantChecks")
	}
}

// Session is the public façade over the multi-flow link engine: datagrams
// enter as flows via Send, rounds run via Step or Drain (both honoring
// context cancellation), and each flow leaves exactly once as a Result.
//
// A Session serializes its API with an internal mutex, so concurrent
// misuse resolves into typed errors instead of data races: Send or Step
// during another goroutine's Drain returns ErrDraining, any call after
// Close (including a second Close) returns ErrClosed, and a Close that
// lands mid-Drain stops the drain at the next round boundary (the drain
// returns the results resolved so far together with ErrClosed). The
// engine itself still runs one round at a time; parallelism lives inside
// each round's codec work (see WithCodecPool), and no goroutine outlives
// the Step or Drain that started it.
type Session struct {
	eng *ilink.Engine
	def flowConfig

	mu       sync.Mutex // serializes engine access and state transitions
	closed   bool
	draining bool
}

// NewSession starts a link session for the given code parameters.
// Options set the engine-wide configuration and the per-flow defaults
// that Send inherits.
func NewSession(p spinal.Params, opts ...Option) (*Session, error) {
	var c config
	c.engine.Params = p
	for _, o := range opts {
		o(&c)
	}
	return &Session{eng: ilink.NewEngine(c.engine), def: c.flow}, nil
}

// Send admits a datagram as a new flow (transmitting from the next Step)
// and returns its ID. Only flow-scoped options are legal here; they
// override the session defaults for this flow. The datagram is not
// copied — the caller must not mutate it until the flow resolves.
func (s *Session) Send(datagram []byte, opts ...Option) (FlowID, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0, ErrClosed
	}
	if s.draining {
		return 0, ErrDraining
	}
	c := config{flow: s.def}
	for _, o := range opts {
		o(&c)
	}
	if len(c.sessionOnly) > 0 {
		return 0, fmt.Errorf("link: option %s is session-scoped; pass it to NewSession", c.sessionOnly[0])
	}
	rate := c.flow.rate
	if rate == nil && c.flow.rateFn != nil {
		rate = c.flow.rateFn()
	}
	return s.eng.AddFlow(datagram, ilink.FlowConfig{
		Channel:   c.flow.channel,
		Rate:      rate,
		MaxRounds: c.flow.maxRounds,
		Weight:    c.flow.weight,
		Priority:  c.flow.priority,
		Deadline:  c.flow.deadline,
	}), nil
}

// Step runs one engine round — schedule, encode, air, decode, ack — and
// returns the flows it resolved (nil most rounds). A canceled context
// returns before the round runs.
func (s *Session) Step(ctx context.Context) ([]Result, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrClosed
	}
	if s.draining {
		return nil, ErrDraining
	}
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	return s.eng.Step(), nil
}

// Drain steps until every flow resolves, returning all results. On
// cancellation it returns the results resolved so far together with the
// context's error; the session stays usable. The session's mutex is
// released between rounds, so a concurrent Close interrupts the drain at
// the next round boundary (the drain reports ErrClosed with whatever it
// resolved) and a concurrent Send or Drain gets ErrDraining back instead
// of interleaving.
func (s *Session) Drain(ctx context.Context) ([]Result, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrClosed
	}
	if s.draining {
		s.mu.Unlock()
		return nil, ErrDraining
	}
	s.draining = true
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		s.draining = false
		s.mu.Unlock()
	}()
	var out []Result
	for {
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			return out, ErrClosed
		}
		if s.eng.Active() == 0 {
			s.mu.Unlock()
			return out, nil
		}
		if err := ctxErr(ctx); err != nil {
			s.mu.Unlock()
			return out, err
		}
		res := s.eng.Step()
		s.mu.Unlock()
		out = append(out, res...)
	}
}

// Active reports the number of unresolved flows.
func (s *Session) Active() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.eng.Active()
}

// Metrics snapshots the session's running totals, consistently between
// rounds. It stays readable after Close.
func (s *Session) Metrics() Metrics {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.eng.Metrics()
}

// SetChannel replaces an active flow's medium mid-flight (nil means
// noiseless) and reports whether the flow was still active.
func (s *Session) SetChannel(id FlowID, model channel.Model) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.eng.SetChannel(id, model)
}

// Close ends the session: any later call, a second Close included,
// returns ErrClosed, and a Close during another goroutine's Drain takes
// effect at the next round boundary. A session holds no goroutines, so
// one that is dropped without Close leaks nothing.
func (s *Session) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	s.closed = true
	return nil
}

// ctxErr reports a context's error, treating nil as background.
func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}
