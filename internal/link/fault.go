// Adversarial-link fault injection: a seeded, deterministic injector
// that wraps both the forward frame path and the reverse (ACK) path of
// an engine flow. The polite impairments — symbol noise from the flow's
// channel.Model, delayed/lossy acks — are what a well-behaved
// simulation produces; real half-duplex radio links also lose, reorder,
// duplicate, truncate and bit-flip traffic in both directions, and go
// dark for whole bursts. This is the one place a forward share is lost. The injector produces exactly those faults, at
// the wire-byte level, so the strict frame/ack parsers and the typed
// error paths behind them are exercised on the live path rather than
// only under fuzzing. Every fault is independently parameterized,
// counted in FaultStats, and reproducible from the seed.
package link

import (
	"math/rand"
)

// FaultConfig parameterizes deterministic fault injection on a flow's
// forward (frame) and reverse (ack) paths. Every probability is
// evaluated independently per transmission, so faults compose: a frame
// can be corrupted, duplicated and reordered at once. The zero value
// injects nothing.
type FaultConfig struct {
	// FrameReorder is the probability a flow's frame share is displaced
	// into a later round instead of delivering immediately; the
	// displacement is uniform in [1, ReorderDepth] rounds.
	FrameReorder float64
	// FrameDup is the probability the share is additionally replayed,
	// byte-identical, 1..ReorderDepth rounds later.
	FrameDup float64
	// FrameTruncate is the probability the share's wire bytes are cut at
	// a random offset before delivery. The strict frame parser rejects
	// the stump, so a truncated share behaves like a loss — but through
	// the parser's typed-error path, not a silent skip.
	FrameTruncate float64
	// FrameCorrupt is the probability CorruptBits random bits of the
	// share's wire bytes are flipped before delivery. Most flips make
	// the frame unparseable (dropped, counted); flips that survive the
	// parser produce frame-shaped garbage the receiver's typed-error
	// checks (ErrBadSymbolID, ErrBadSymbol, ErrMalformedBatch) must
	// absorb.
	FrameCorrupt float64
	// Blackout is the per-round probability a blackout burst begins:
	// for BlackoutRounds rounds nothing is delivered in the forward
	// direction — new shares are swallowed and in-flight reordered
	// shares stay in the air.
	Blackout float64
	// ReorderDepth bounds reorder/duplicate displacement in rounds
	// (0 ⇒ 4).
	ReorderDepth int
	// CorruptBits is the number of bit flips per corrupted wire image
	// (0 ⇒ 3).
	CorruptBits int
	// BlackoutRounds is the blackout burst length (0 ⇒ 8).
	BlackoutRounds int

	// AckReorder, AckDup, AckTruncate and AckCorrupt are the reverse
	// path's counterparts, applied to each ack's wire bytes inside the
	// FeedbackChannel (they require an EngineConfig.Feedback to exist).
	// A truncated or corrupted ack that no longer parses is counted
	// lost on delivery; one that still parses must be absorbed
	// idempotently by the sender's ARQ.
	AckReorder  float64
	AckDup      float64
	AckTruncate float64
	AckCorrupt  float64

	// Seed perturbs the per-flow injector seeding (mixed with the
	// engine seed and flow ID).
	Seed int64
}

func (c FaultConfig) reorderDepth() int {
	if c.ReorderDepth > 0 {
		return c.ReorderDepth
	}
	return 4
}

func (c FaultConfig) corruptBits() int {
	if c.CorruptBits > 0 {
		return c.CorruptBits
	}
	return 3
}

func (c FaultConfig) blackoutRounds() int {
	if c.BlackoutRounds > 0 {
		return c.BlackoutRounds
	}
	return 8
}

// ackFaults reports whether any reverse-path fault is configured.
func (c FaultConfig) ackFaults() bool {
	return c.AckReorder > 0 || c.AckDup > 0 || c.AckTruncate > 0 || c.AckCorrupt > 0
}

// Scale returns a copy with every fault probability multiplied by f and
// clamped to [0, 1]; depths and burst lengths are unchanged. Scale(0)
// disables every fault — the degradation sweeps ride this.
func (c FaultConfig) Scale(f float64) FaultConfig {
	s := func(p float64) float64 {
		p *= f
		if p < 0 {
			return 0
		}
		if p > 1 {
			return 1
		}
		return p
	}
	out := c
	out.FrameReorder = s(c.FrameReorder)
	out.FrameDup = s(c.FrameDup)
	out.FrameTruncate = s(c.FrameTruncate)
	out.FrameCorrupt = s(c.FrameCorrupt)
	out.Blackout = s(c.Blackout)
	out.AckReorder = s(c.AckReorder)
	out.AckDup = s(c.AckDup)
	out.AckTruncate = s(c.AckTruncate)
	out.AckCorrupt = s(c.AckCorrupt)
	return out
}

// FaultStats counts the faults injected into one flow, by direction and
// kind. Counters record injection events: a duplicated-then-reordered
// share increments both counters, and a corrupted share is counted
// whether or not the mangled bytes still parse.
type FaultStats struct {
	FramesReordered  int
	FramesDuplicated int
	FramesTruncated  int
	FramesCorrupted  int
	// FramesBlackedOut counts shares swallowed by blackout bursts;
	// Blackouts counts the bursts themselves.
	FramesBlackedOut int
	Blackouts        int

	AcksReordered  int
	AcksDuplicated int
	AcksTruncated  int
	AcksCorrupted  int
}

// Frames totals the forward-path faults: the frame shares reordered,
// duplicated, truncated, corrupted or blacked out.
func (f FaultStats) Frames() int {
	return f.FramesReordered + f.FramesDuplicated + f.FramesTruncated +
		f.FramesCorrupted + f.FramesBlackedOut
}

// Acks totals the reverse-path faults: the acks reordered, duplicated,
// truncated or corrupted.
func (f FaultStats) Acks() int {
	return f.AcksReordered + f.AcksDuplicated + f.AcksTruncated + f.AcksCorrupted
}

// add adds o into f, counter by counter.
func (f *FaultStats) add(o FaultStats) {
	f.FramesReordered += o.FramesReordered
	f.FramesDuplicated += o.FramesDuplicated
	f.FramesTruncated += o.FramesTruncated
	f.FramesCorrupted += o.FramesCorrupted
	f.FramesBlackedOut += o.FramesBlackedOut
	f.Blackouts += o.Blackouts
	f.AcksReordered += o.AcksReordered
	f.AcksDuplicated += o.AcksDuplicated
	f.AcksTruncated += o.AcksTruncated
	f.AcksCorrupted += o.AcksCorrupted
}

// maxFaultQueue bounds the reorder hold-back queue per flow: a fault
// schedule cannot grow memory without bound, and a share that would
// overflow the queue is delivered immediately instead of held.
const maxFaultQueue = 64

// wireQueue holds wire images in flight, each due at a round: the
// fault injector's held-back frame shares and a FeedbackChannel's acks.
type wireQueue []heldWire

// heldWire is one wire image held back for delivery at round due.
type heldWire struct {
	due  int
	wire []byte
}

func (q *wireQueue) push(due int, wire []byte) {
	*q = append(*q, heldWire{due: due, wire: wire})
}

// release removes the images due by round now and hands each to fn, in
// insertion order among those due. fn must not push onto q.
func (q *wireQueue) release(now int, fn func(wire []byte)) {
	live := (*q)[:0]
	for _, h := range *q {
		if h.due > now {
			live = append(live, h)
			continue
		}
		fn(h.wire)
	}
	*q = live
}

// faultInjector applies one flow's FaultConfig. It is single-threaded,
// driven from the engine's Step (forward path) and the flow's
// FeedbackChannel (reverse path); all randomness comes from its own
// seeded rng, so a run is reproducible from (config, seed) alone.
type faultInjector struct {
	cfg   FaultConfig
	rng   *rand.Rand
	stats FaultStats

	queue        wireQueue
	blackoutLeft int
}

func newFaultInjector(cfg FaultConfig, seed int64) *faultInjector {
	return &faultInjector{
		cfg: cfg,
		rng: rand.New(rand.NewSource(seed ^ 0x6661756c74)), // "fault"
	}
}

// truncateWire cuts b at a random offset in [0, len(b)); the result is
// never the intact input. Returns b unchanged when it is empty.
func truncateWire(rng *rand.Rand, b []byte) []byte {
	if len(b) == 0 {
		return b
	}
	return b[:rng.Intn(len(b))]
}

// flipBits flips k random bits of b in place and returns it.
func flipBits(rng *rand.Rand, b []byte, k int) []byte {
	if len(b) == 0 {
		return b
	}
	for i := 0; i < k; i++ {
		bit := rng.Intn(len(b) * 8)
		b[bit/8] ^= 1 << (bit % 8)
	}
	return b
}

// deliver runs one round of the forward path: it applies the configured
// faults to the flow's share of this round's frame (nil when the flow
// did not transmit) and returns the frames the
// receiver actually sees this round — the surviving share plus any
// held-back shares now due, parsed back from their wire bytes. Mangled
// images that no longer parse are dropped here; that is the point: a
// truncated or bit-flipped frame must die in the strict parser, not
// reach the decoder.
func (in *faultInjector) deliver(f *Frame, round int) []*Frame {
	if in.blackoutLeft == 0 && in.cfg.Blackout > 0 && in.rng.Float64() < in.cfg.Blackout {
		in.blackoutLeft = in.cfg.blackoutRounds()
		in.stats.Blackouts++
	}
	if in.blackoutLeft > 0 {
		// The medium is dead: the new share is swallowed and held-back
		// shares stay in the air until it recovers.
		in.blackoutLeft--
		if f != nil {
			in.stats.FramesBlackedOut++
		}
		for i := range in.queue {
			if in.queue[i].due <= round {
				in.queue[i].due = round + 1
			}
		}
		return nil
	}

	var wires [][]byte
	if f != nil {
		wire := EncodeFrame(f)
		if in.cfg.FrameTruncate > 0 && in.rng.Float64() < in.cfg.FrameTruncate {
			wire = truncateWire(in.rng, wire)
			in.stats.FramesTruncated++
		}
		if in.cfg.FrameCorrupt > 0 && in.rng.Float64() < in.cfg.FrameCorrupt {
			wire = flipBits(in.rng, wire, in.cfg.corruptBits())
			in.stats.FramesCorrupted++
		}
		if in.cfg.FrameDup > 0 && in.rng.Float64() < in.cfg.FrameDup {
			in.hold(append([]byte(nil), wire...), round, &wires)
			in.stats.FramesDuplicated++
		}
		if in.cfg.FrameReorder > 0 && in.rng.Float64() < in.cfg.FrameReorder {
			in.hold(wire, round, &wires)
			in.stats.FramesReordered++
		} else {
			wires = append(wires, wire)
		}
	}
	in.queue.release(round, func(wire []byte) { wires = append(wires, wire) })

	var out []*Frame
	for _, w := range wires {
		df, err := DecodeFrame(w)
		if err != nil {
			continue // mangled beyond parsing: the fault was already counted
		}
		out = append(out, df)
	}
	return out
}

// hold queues a wire image for delivery 1..ReorderDepth rounds from now,
// or delivers it immediately when the hold-back queue is full (memory
// stays bounded no matter the fault schedule).
func (in *faultInjector) hold(wire []byte, round int, now *[][]byte) {
	due := round + 1 + in.rng.Intn(in.cfg.reorderDepth())
	if len(in.queue) >= maxFaultQueue {
		*now = append(*now, wire)
		return
	}
	in.queue.push(due, wire)
}

// mangleAck applies the reverse-path faults to one ack's wire bytes,
// returning the (possibly mangled) bytes, an extra delivery delay in
// rounds, and an optional duplicate to enqueue with its own extra
// delay. Called by the flow's FeedbackChannel on Send.
func (in *faultInjector) mangleAck(wire []byte) (out []byte, extraDelay int, dup []byte, dupDelay int) {
	if in.cfg.AckTruncate > 0 && in.rng.Float64() < in.cfg.AckTruncate {
		wire = truncateWire(in.rng, wire)
		in.stats.AcksTruncated++
	}
	if in.cfg.AckCorrupt > 0 && in.rng.Float64() < in.cfg.AckCorrupt {
		wire = flipBits(in.rng, wire, in.cfg.corruptBits())
		in.stats.AcksCorrupted++
	}
	if in.cfg.AckDup > 0 && in.rng.Float64() < in.cfg.AckDup {
		dup = append([]byte(nil), wire...)
		dupDelay = 1 + in.rng.Intn(in.cfg.reorderDepth())
		in.stats.AcksDuplicated++
	}
	if in.cfg.AckReorder > 0 && in.rng.Float64() < in.cfg.AckReorder {
		extraDelay = 1 + in.rng.Intn(in.cfg.reorderDepth())
		in.stats.AcksReordered++
	}
	return wire, extraDelay, dup, dupDelay
}
