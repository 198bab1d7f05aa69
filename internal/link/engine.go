package link

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"

	"spinal/internal/channel"
	icode "spinal/internal/code"
	"spinal/internal/core"
	"spinal/internal/framing"
)

// FlowID identifies one datagram in flight through an Engine.
type FlowID uint64

// ErrFlowBudget reports a flow that exhausted its round budget before
// every code block decoded (channel too poor, or budget too tight).
var ErrFlowBudget = errors.New("link: flow exceeded its round budget before decoding")

// RatePolicy paces one flow: how many fresh puncturing subpasses (§5)
// each outstanding code block transmits in the coming round. It is the
// engine's per-flow rate-adaptation hook — the schedule itself fixes
// which symbols a subpass carries, the policy decides how fast the flow
// walks it.
type RatePolicy interface {
	// SubpassBudget returns the number of subpasses (≥ 0; 0 skips the
	// block this round) for a block of blockBits bits, given the symbols
	// one subpass carries and the symbols already sent for the block.
	SubpassBudget(blockBits, subpassSymbols, symbolsSent int) int
}

// FixedRate transmits a constant number of subpasses per block per round;
// values below 1 mean 1 (Sender.NextFrame's frame-at-a-time pace).
type FixedRate int

// SubpassBudget implements RatePolicy.
func (r FixedRate) SubpassBudget(_, _, _ int) int {
	if r < 1 {
		return 1
	}
	return int(r)
}

// CapacityRate opens each block with a burst sized so the receiver is
// likely just past its decoding point — blockBits/(margin·C(est))
// symbols, the heuristic §6's half-duplex discussion implies for how long
// a sender should transmit before it stops to listen — and then trickles
// geometrically growing increments. A stale SNR estimate degrades
// gracefully: too low wastes a little rate, too high adds trickle rounds.
// With EngineConfig.HalfDuplex each round's burst ends in one charged ack
// turnaround.
type CapacityRate struct {
	// SNREstimateDB is the sender's (possibly stale) channel estimate.
	SNREstimateDB float64
	// Margin derates capacity for the code's gap; 0 means 0.8.
	Margin float64
	// Growth is the post-burst increment as a fraction of the initial
	// estimate; 0 means 0.25.
	Growth float64
}

// SubpassBudget implements RatePolicy.
func (p CapacityRate) SubpassBudget(blockBits, subpassSymbols, symbolsSent int) int {
	return capacityBurst(p.SNREstimateDB, p.Margin, p.Growth, blockBits, max(subpassSymbols, 1), symbolsSent)
}

// EngineConfig configures a multi-flow link engine.
type EngineConfig struct {
	// Params is the spinal code every flow runs unless Code is set.
	Params core.Params
	// Code, when non-nil, selects the channel code every flow runs
	// instead of the spinal code of Params. Codes that implement
	// code.RateAdapter receive every decoded block's symbol spend,
	// mirroring the rate policies' RateObserver hook.
	Code icode.Code
	// MaxBlockBits bounds code blocks (0 ⇒ the §6 default of 1024).
	MaxBlockBits int
	// Shards bounds the goroutines a round's encode and decode work
	// runs on, the stepping one included, and so the cores it can use
	// (0 ⇒ GOMAXPROCS).
	Shards int
	// FrameSymbols is the shared-frame symbol budget: the scheduler stops
	// admitting batches once a frame holds this many symbols, and the
	// remaining flows wait for the next round (backpressure). 0 ⇒ 4096.
	FrameSymbols int
	// Seed drives the per-flow feedback-loss and fault-injection
	// randomness.
	Seed int64
	// MaxRounds is the default per-flow give-up budget in scheduling
	// rounds (0 ⇒ 512); FlowConfig can override it per flow.
	MaxRounds int
	// Feedback, when non-nil, replaces §6's instant perfect per-block ACK
	// with an explicit reverse channel: every flow's acks cross a
	// FeedbackChannel with the configured delay and loss, and the
	// sender paces each block with retransmission timers, exponential
	// backoff and a bounded in-flight window. nil means §6's instant
	// per-block ack.
	Feedback *FeedbackConfig
	// HalfDuplex, when non-nil, charges reverse-channel airtime to the
	// flows that cause it: on a shared half-duplex medium the receiver's
	// acks occupy the channel too, so each ack's wire bytes are converted
	// to symbols (at AckBitsPerSymbol) and accumulated in
	// Stats.AckSymbols, and Stats.Rate divides by forward plus ack
	// symbols. nil keeps §6's idealization of free acks. Accounting only:
	// ack airtime never consumes the forward frame's symbol budget.
	HalfDuplex *HalfDuplexConfig
	// Observer, when non-nil, receives feedback-path telemetry: one event
	// when a receiver emits an ack that crosses to its sender (AckSent)
	// and one when the sender applies it (AckDelivered). Purely
	// observational — the engine ignores anything the observer does.
	Observer FeedbackObserver
	// Scheduler, when non-nil, replaces the round-robin admission phase
	// with deficit-weighted fair queuing (see sched.go): per-flow weights
	// and priority classes, optional deadlines, and quantum-based credit
	// accounting over symbol spend, with half-duplex ack airtime debited
	// from the flow that caused it. nil means round-robin admission.
	Scheduler *SchedulerConfig
	// Faults, when non-nil, runs every flow's traffic through a seeded
	// deterministic fault injector: each round's share of the frame
	// crosses the wire codec and may be reordered, duplicated, truncated,
	// bit-flipped or blacked out before the receiver sees it, and (with a
	// FeedbackConfig) each ack's wire bytes suffer the reverse-path
	// counterparts inside the FeedbackChannel. nil hands each round's
	// batches straight to the receiver, with no wire codec.
	Faults *FaultConfig
	// CheckInvariants asserts the engine's conservation laws after every
	// Step — resolved+active flows match admissions, acked blocks are
	// monotone, ARQ window occupancy within bounds, symbol accounting
	// consistent, receiver memory bounded — panicking with a diagnostic on
	// the first violation. For tests and soaks; off, it costs nothing.
	CheckInvariants bool
}

// HalfDuplexConfig prices reverse-channel (ack) airtime on a shared
// half-duplex medium.
type HalfDuplexConfig struct {
	// AckBitsPerSymbol is the reverse link's modulation density used to
	// convert ack wire bytes into channel symbols (0 ⇒ 2, QPSK-like).
	AckBitsPerSymbol int
}

// airtime converts an ack's wire size into charged channel symbols.
func (h *HalfDuplexConfig) airtime(wireBytes int) int {
	bps := h.AckBitsPerSymbol
	if bps <= 0 {
		bps = 2
	}
	return (8*wireBytes + bps - 1) / bps
}

func (c EngineConfig) frameSymbols() int {
	if c.FrameSymbols <= 0 {
		return 4096
	}
	return c.FrameSymbols
}

func (c EngineConfig) maxRounds() int {
	if c.MaxRounds <= 0 {
		return 512
	}
	return c.MaxRounds
}

// FlowConfig describes one flow entering the engine.
type FlowConfig struct {
	// Channel perturbs the flow's share of each frame (nil ⇒ noiseless).
	// Distinct flows may see distinct media — near and far stations on
	// one access point. The medium only adds noise: a share is lost
	// only in the fault injector (EngineConfig.Faults).
	Channel channel.Model
	// Rate paces the flow (nil ⇒ FixedRate(1)).
	Rate RatePolicy
	// MaxRounds overrides the engine's give-up budget (0 ⇒ inherit).
	MaxRounds int
	// Weight is the flow's share of the link under a DWFQ scheduler
	// (EngineConfig.Scheduler): a weight-2 flow earns twice the per-round
	// symbol credit of a weight-1 flow (0 ⇒ 1). Ignored under the
	// default round-robin admission.
	Weight int
	// Priority is the flow's strict scheduling class under DWFQ: higher
	// classes are served before lower ones each round (and can starve
	// them — use Weight within a class for proportional sharing).
	// Ignored under round-robin.
	Priority int
	// Deadline, when positive, resolves the flow with ErrDeadline once it
	// has aged that many rounds without completing; under DWFQ, deadline
	// flows are additionally served earliest-deadline-first within their
	// priority class. 0 means no deadline.
	Deadline int
}

// FlowResult reports a resolved flow: its reassembled datagram on
// success, or a typed error (ErrFlowBudget) on give-up.
type FlowResult struct {
	ID       FlowID
	Datagram []byte
	Stats    Stats
	Err      error
}

// engineFlow is one flow's state machine: today's Sender/Receiver pair
// plus pacing and accounting. The codec-heavy work (symbol generation,
// decode attempts) runs in Step's fan-outs, not here.
type engineFlow struct {
	id        FlowID
	snd       *Sender
	rcv       *Receiver
	ch        channel.Model // nil ⇒ noiseless
	rate      RatePolicy
	rounds    int
	maxRounds int
	frames    int
	bytes     int

	// ARQ state, present only when the engine runs with a FeedbackConfig.
	fb  *FeedbackChannel
	arq []retxTimer
	rx  bool // received something on the air this round (ack due)

	// Fault-injection state, present only under an EngineConfig.Faults:
	// the flow's injector, its block layout (for rebuilding wire frames),
	// and the receiver-side rejection tally.
	inj             *faultInjector
	layout          []int
	batchesRejected int

	// prevAcked snapshots the sender's acked bitmap at the last invariant
	// check (EngineConfig.CheckInvariants), to assert monotonicity.
	prevAcked []bool

	// DWFQ state (EngineConfig.Scheduler): the flow's weight, strict
	// priority class, optional deadline in rounds, and its symbol-credit
	// balance. Unused under round-robin admission (weight is still
	// defaulted).
	weight   int
	prio     int
	deadline int
	deficit  int64

	ackSymbols int // half-duplex reverse-channel airtime charged so far
}

// Engine multiplexes many concurrent datagrams ("flows") over a shared
// rateless link. Each flow is segmented into CRC-protected code blocks,
// and every round (Step) runs six stages: schedule admits one batch per
// outstanding block from as many flows as fit a shared frame's symbol
// budget (backpressure defers the rest); encode generates the batches'
// symbols from the senders' per-block encoders; air perturbs each flow's
// share with its medium; decode accumulates what arrived and attempts
// the blocks that gained symbols; ack reports decoded blocks back to the
// senders; resolve retires finished and exhausted flows. Encode and
// decode fan out over up to Shards goroutines: the one calling Step and
// helpers started for that fan-out alone. Every code block decodes
// independently (§6), so each goroutine stays busy as long as the
// round has unclaimed blocks.
//
// The engine is single-threaded at its API (AddFlow/Step/Drain must not
// be called concurrently); parallelism lives inside Step's codec rounds,
// and no goroutine outlives a Step, so an engine needs no Close.
type Engine struct {
	cfg   EngineConfig
	code  icode.Code
	flows []*engineFlow
	next  FlowID
	rr    int   // round-robin admission cursor
	sched *dwfq // DWFQ state, nil under round-robin
	seq   uint32

	items  []txItem  // the round's scheduled batches
	groups []rxGroup // the round's decode work, one group per (flow, block)

	// Fan-out state (fanOut): one decoder cache per goroutine a fan-out
	// may use, the stage being run, the indexes of its items, and the
	// claim counter over them.
	slots []worker
	stage stage
	work  []int
	claim atomic.Int64
	wg    sync.WaitGroup

	// tot is the running total Metrics reports: the flow counts the
	// invariant checker also reads, the bytes delivered, the sum of
	// every resolved flow's Stats and the DWFQ counters.
	tot Metrics
}

// txItem is one scheduled batch's journey through a round: IDs assigned
// on the engine thread, symbols filled in the encode fan-out, then perturbed
// by the flow's channel.
type txItem struct {
	fl    *engineFlow
	batch Batch
}

// rxGroup collects the batches the receiver of one (flow, block) pair
// gets in a round. Without faults that is one batch; under
// fault injection, reorder and duplication can deliver several for the
// same block. One decode per group keeps concurrent decodes on disjoint
// receiver state.
type rxGroup struct {
	fl       *engineFlow
	block    int
	batches  []Batch
	decoded  bool
	rejected int
}

// NewEngine builds an engine. It starts no goroutines.
func NewEngine(cfg EngineConfig) *Engine {
	code := cfg.Code
	if code == nil {
		code = icode.Spinal(cfg.Params)
	}
	shards := cfg.Shards
	if shards <= 0 {
		shards = runtime.GOMAXPROCS(0)
	}
	e := &Engine{cfg: cfg, code: code, slots: make([]worker, shards)}
	for i := range e.slots {
		e.slots[i] = worker{code: code}
	}
	if cfg.Scheduler != nil {
		e.sched = &dwfq{cfg: *cfg.Scheduler}
	}
	return e
}

// AddFlow admits a datagram as a new flow and returns its ID. A nil
// datagram is legal (a single CRC-only block). The flow starts
// transmitting on the next Step.
func (e *Engine) AddFlow(datagram []byte, fc FlowConfig) FlowID {
	fl := &engineFlow{
		id:        e.next,
		snd:       NewCodeSender(e.code, datagram, e.cfg.MaxBlockBits),
		rcv:       NewCodeReceiver(e.code),
		ch:        fc.Channel,
		rate:      fc.Rate,
		maxRounds: fc.MaxRounds,
		weight:    fc.Weight,
		prio:      fc.Priority,
		deadline:  fc.Deadline,
		bytes:     len(datagram),
	}
	if fl.weight <= 0 {
		fl.weight = 1
	}
	if fl.rate == nil {
		fl.rate = FixedRate(1)
	}
	if fl.maxRounds <= 0 {
		fl.maxRounds = e.cfg.maxRounds()
	}
	if fb := e.cfg.Feedback; fb != nil {
		fl.fb = NewFeedbackChannel(*fb, e.cfg.Seed^(int64(fl.id)*0x5851f42d4c957f2d+0x5f))
		fl.arq = make([]retxTimer, fl.snd.Blocks())
		for i := range fl.arq {
			fl.arq[i] = newRetxTimer(fb.rto(), fb.maxRTO())
		}
	}
	if fc := e.cfg.Faults; fc != nil {
		fl.inj = newFaultInjector(*fc,
			e.cfg.Seed^fc.Seed^(int64(fl.id)*0x2545f4914f6cdd1d+0x17))
		if fl.fb != nil {
			fl.fb.setFaults(fl.inj)
		}
	}
	// The engine feeds the receiver batches directly, so adopt the block
	// layout now instead of waiting for a first frame.
	layout := make([]int, fl.snd.Blocks())
	for i := range layout {
		layout[i] = fl.snd.blocks[i].NumBits()
	}
	fl.layout = layout
	if err := fl.rcv.init(layout); err != nil {
		// Segment never produces an invalid layout; fail loudly if it does.
		panic(err)
	}
	e.next++
	e.tot.Admitted++
	e.flows = append(e.flows, fl)
	return fl.id
}

// Active reports the number of unresolved flows.
func (e *Engine) Active() int { return len(e.flows) }

// SetChannel replaces an active flow's medium mid-flight — a station
// handing off to a different link, or a scenario driver switching channel
// regimes — and reports whether the flow was still active. A nil channel
// means noiseless. Symbols already in the receiver's accumulators are
// unaffected; only future rounds cross the new medium.
func (e *Engine) SetChannel(id FlowID, ch channel.Model) bool {
	for _, fl := range e.flows {
		if fl.id == id {
			fl.ch = ch
			return true
		}
	}
	return false
}

// Metrics is an engine's running totals since it started.
type Metrics struct {
	// Admitted counts the flows added, Active those not yet resolved,
	// and Delivered and Failed the resolved ones, by whether they
	// returned their datagram or an error, so
	// Admitted == Active + Delivered + Failed.
	Admitted, Active, Delivered, Failed int
	// BytesDelivered is the delivered flows' payload bytes.
	BytesDelivered int
	// Totals sums the Stats of every resolved flow, counter by counter
	// (Rate, not a counter, stays zero).
	Totals Stats
	// DecodersBuilt counts decoder constructions: each of the Shards
	// decoder caches builds one decoder per distinct block size, however
	// many blocks it decodes.
	DecodersBuilt int64
	// Scheduler is the DWFQ scheduler's accounting, zero under
	// round-robin admission.
	Scheduler SchedulerStats
}

// Metrics snapshots the engine's running totals. Like every Engine
// method it must not run concurrently with Step.
func (e *Engine) Metrics() Metrics {
	m := e.tot
	m.Active = len(e.flows)
	for i := range e.slots {
		m.DecodersBuilt += e.slots[i].built
	}
	if e.sched != nil {
		for _, fl := range e.flows {
			m.Scheduler.DeficitOutstanding += fl.deficit
		}
	}
	return m
}

// observeDecode reports one decoded block's size and symbol spend to
// whoever adapts on it: the flow's rate policy (RateObserver) and the
// code itself (code.RateAdapter — the LDPC shim's rung learning). Runs
// on the engine thread.
func (e *Engine) observeDecode(fl *engineFlow, block int) {
	nb := fl.snd.blocks[block].NumBits()
	spent := fl.snd.symbolsFor(block)
	if ob, ok := fl.rate.(RateObserver); ok {
		ob.ObserveDecode(nb, spent)
	}
	if ra, ok := e.code.(icode.RateAdapter); ok {
		ra.ObserveDecode(nb, spent)
	}
}

// stage names the per-item work a fan-out runs.
type stage int

const (
	stageEncode stage = iota // e.items: regenerate symbols
	stageDecode              // e.groups: accumulate and attempt
)

// fanOut runs st over the items whose indexes e.work lists and returns
// once all are done. The calling goroutine runs with decoder slot 0, and
// one helper goroutine per further slot, min(items, Shards) − 1 of them,
// lives for this fan-out alone. Each claims the next index until the
// list is empty, so none idles while another still has items: a long
// decode delays only the items its own goroutine has not claimed yet.
// Which goroutine runs an item does not change its result: items touch
// disjoint flow state (a (flow, block) pair appears at most once a
// round), and decoders are reset before every attempt.
func (e *Engine) fanOut(st stage) {
	n := min(len(e.work), len(e.slots))
	if n == 0 {
		return
	}
	e.stage = st
	e.claim.Store(0)
	e.wg.Add(n - 1)
	for s := 1; s < n; s++ {
		go func() {
			defer e.wg.Done()
			e.run(&e.slots[s])
		}()
	}
	e.run(&e.slots[0])
	e.wg.Wait()
	e.work = e.work[:0]
}

// run claims and runs the current fan-out's items, decoding with slot w,
// until none is left.
func (e *Engine) run(w *worker) {
	for {
		k := int(e.claim.Add(1)) - 1
		if k >= len(e.work) {
			return
		}
		i := e.work[k]
		if e.stage == stageEncode {
			it := &e.items[i]
			it.batch.Symbols = it.fl.snd.encoder(it.batch.Block).Symbols(it.batch.IDs)
		} else {
			e.decodeGroup(w, &e.groups[i])
		}
	}
}

// Step runs one round through the engine's six stages, in order, and
// returns the flows resolved by it (nil most rounds). It is cheap to call
// with no active flows.
func (e *Engine) Step() []FlowResult {
	if len(e.flows) == 0 {
		return nil
	}
	round := int(e.seq)
	e.seq++
	e.schedule(round)
	e.encode()
	e.air(round)
	e.decode()
	e.ack(round)
	results := e.resolve()
	if e.cfg.CheckInvariants {
		e.checkInvariants(round)
	}
	return results
}

// schedule fills e.items with one batch of fresh symbol IDs per admitted
// (flow, block) pair, bounded by the shared frame's symbol budget. The
// visit order is round-robin by default (scheduleRR) or deficit-weighted
// fair queuing under EngineConfig.Scheduler (scheduleDWFQ in sched.go);
// both admit each flow through admit.
func (e *Engine) schedule(round int) {
	e.items = e.items[:0]
	if e.sched != nil {
		e.scheduleDWFQ(round)
	} else {
		e.scheduleRR(round)
	}
}

// scheduleRR visits flows round-robin from the fairness cursor until the
// shared frame is full. Flows left out neither transmit nor age.
func (e *Engine) scheduleRR(round int) {
	budget := e.cfg.frameSymbols()
	symbols, offered, n := 0, 0, len(e.flows)
	for ; offered < n && symbols < budget; offered++ {
		fl := e.flows[(e.rr+offered)%n]
		fl.rounds++
		symbols = e.admit(fl, round, symbols)
	}
	e.rr = (e.rr + offered) % max(n, 1)
}

// admit schedules one flow's batches for the round — one batch of fresh
// symbol IDs per outstanding block, sized by the flow's rate policy —
// into a frame already holding symbols symbols, stopping once the frame
// is full. It returns the frame's new symbol count.
//
// Under a FeedbackConfig a block transmits only when its ARQ timer grants
// it — first pass (window permitting), nack continuation, or timeout
// retransmission — because the sender cannot see decodes, only delayed
// acks. Under DWFQ a batch is clamped to the flow's credit.
func (e *Engine) admit(fl *engineFlow, round, symbols int) int {
	budget := e.cfg.frameSymbols()
	inFrame := false
	window, inflight := 0, 0
	if fl.fb != nil {
		window = e.cfg.Feedback.window()
		for b := range fl.snd.blocks {
			if !fl.snd.acked[b] && fl.arq[b].inflight {
				inflight++
			}
		}
	}
	for b := range fl.snd.blocks {
		if fl.snd.acked[b] {
			continue
		}
		var st *retxTimer
		timeout := false
		if fl.fb != nil {
			st = &fl.arq[b]
			if !st.inflight && inflight >= window {
				continue // in-flight window full; this block waits
			}
			var send bool
			if send, timeout = st.advance(); !send {
				continue
			}
		}
		sched := fl.snd.scheds[b]
		sub := max(sched.SymbolsPerPass()/sched.Subpasses(), 1)
		want := fl.rate.SubpassBudget(fl.snd.blocks[b].NumBits(), sub, fl.snd.symbolsFor(b))
		if e.sched != nil {
			// The deficit clamp is where fairness bites: however large a
			// burst the rate policy asks for, the flow transmits only what
			// its credit covers; the rest stays due and is retried as the
			// account refills.
			want = min(want, int(fl.deficit/int64(sub)))
		}
		if want < 1 {
			// Policy veto, or credit exhausted (or in ack-airtime debt):
			// an ARQ grant stays due, uncommitted.
			continue
		}
		if st != nil {
			if !st.inflight {
				inflight++
			}
			st.commit(round, timeout)
		}
		batch := fl.snd.batchIDs(b, want)
		if e.sched != nil {
			fl.deficit -= int64(len(batch.IDs))
			e.tot.Scheduler.SymbolsAdmitted += int64(len(batch.IDs))
		}
		symbols += len(batch.IDs)
		inFrame = true
		e.items = append(e.items, txItem{fl: fl, batch: batch})
		if symbols >= budget {
			break
		}
	}
	if inFrame {
		fl.frames++
	}
	return symbols
}

// encode generates each scheduled batch's symbols in a fan-out, from the
// sender's encoder for the batch's block. A (flow, block) pair is unique
// within a round, so no two goroutines touch one encoder.
func (e *Engine) encode() {
	for i := range e.items {
		if len(e.items[i].batch.IDs) > 0 {
			e.work = append(e.work, i)
		}
	}
	e.fanOut(stageEncode)
}

// air puts the frame on the medium — each flow's channel over its own
// share, serially in schedule order so stateful channel RNGs stay
// deterministic — and collects what reaches the receivers into e.groups.
// Each batch is its own group: a round schedules a (flow, block) pair at
// most once. Under fault injection each flow's share crosses the wire
// codec and its injector first (faultDeliver), the one place a share is
// lost.
func (e *Engine) air(round int) {
	e.groups = e.groups[:0]
	for k := range e.items {
		it := &e.items[k]
		if len(it.batch.IDs) == 0 {
			continue // nothing went on the air
		}
		if it.fl.ch != nil {
			it.batch.Symbols = it.fl.ch.Transmit(it.batch.Symbols)
		}
		if e.cfg.Faults == nil {
			it.fl.rx = true // the receiver saw this round; it owes an ack
			g := e.addGroup(it.fl, it.batch.Block)
			g.batches = append(g.batches, it.batch)
		}
	}
	if e.cfg.Faults != nil {
		e.faultDeliver(round)
	}
}

// addGroup appends an empty decode group for (fl, block), reusing the
// batch storage its slot held in earlier rounds.
func (e *Engine) addGroup(fl *engineFlow, block int) *rxGroup {
	n := len(e.groups)
	if n < cap(e.groups) {
		e.groups = e.groups[:n+1]
	} else {
		e.groups = append(e.groups, rxGroup{})
	}
	g := &e.groups[n]
	*g = rxGroup{fl: fl, block: block, batches: g.batches[:0]}
	return g
}

// decode runs decodeGroup for every group in a fan-out — groups are
// unique per (flow, block), so concurrent decodes touch disjoint
// receiver state — and tallies the batches the receivers rejected.
func (e *Engine) decode() {
	for i := range e.groups {
		e.work = append(e.work, i)
	}
	e.fanOut(stageDecode)
	for i := range e.groups {
		e.groups[i].fl.batchesRejected += e.groups[i].rejected
	}
}

// worker is one decoder cache. A Decoder's search scratch is sized for
// one block size, so the cache holds one decoder per block size, and
// steady-state attempts build nothing. A worker serves one goroutine at
// a time; its decoders are not retained across attempts.
type worker struct {
	code  icode.Code
	decs  map[int]icode.Decoder
	built int64 // decoders constructed
}

// decoder returns the cache's decoder for nBits-bit blocks, reset to an
// empty symbol store.
func (w *worker) decoder(nBits int) icode.Decoder {
	if d, ok := w.decs[nBits]; ok {
		d.Reset()
		return d
	}
	if w.decs == nil {
		w.decs = make(map[int]icode.Decoder)
	}
	d := w.code.NewDecoder(nBits)
	w.decs[nBits] = d
	w.built++
	return d
}

// decodeGroup feeds a group's batches to the flow's receiver and, when
// they brought new symbols, attempts the block: the decoder is slot w's
// cached one for the engine's code and the block size, reset and
// replayed from the block's accumulated symbols. A batch that overflowed
// the accumulator still stored symbols up to the bound, so a rejection
// does not skip the attempt.
func (e *Engine) decodeGroup(w *worker, g *rxGroup) {
	rcv := g.fl.rcv
	// A corrupt frame that survived the parser can address a block the
	// receiver does not have; accumulate rejects it, but nothing else in
	// this decode may index by it.
	inRange := g.block >= 0 && g.block < len(rcv.blocks)
	for i := range g.batches {
		if ok, err := rcv.accumulate(&g.batches[i]); ok && err != nil {
			g.rejected++
		}
	}
	if !inRange {
		return // frame-shaped garbage: nothing to decode
	}
	if blk := &rcv.blocks[g.block]; !blk.got && blk.dirty {
		g.decoded = rcv.attempt(g.block, w.decoder(blk.nBits))
	}
}

// ack carries the receivers' reports back to the senders. A flow's
// feedback runs one of two ways:
//
//   - instant (the default): §6's one-bit-per-block ack crosses a perfect
//     reverse channel at once, applied in its compressed form — each
//     decoded group acks its block, in group order, which is the order a
//     shared code.RateAdapter learns in;
//   - feedback channel (EngineConfig.Feedback): each flow that received
//     anything sends its ack bitmap into its FeedbackChannel, every
//     channel advances one round, and only delivered acks touch sender
//     state — so the sender (and any RateObserver) sees delayed,
//     possibly missing reports.
func (e *Engine) ack(round int) {
	for k := range e.groups {
		if g := &e.groups[k]; g.decoded && g.fl.fb == nil {
			e.ackBlock(g.fl, g.block)
		}
	}
	for _, fl := range e.flows {
		switch {
		case fl.fb != nil:
			if fl.rx {
				fl.fb.Send(e.sendAck(fl, round))
			}
			// Time passes for every flow's reverse channel, including
			// flows backpressured out of this round's frame.
			for _, a := range fl.fb.Advance() {
				e.applyAck(fl, a, round)
			}
		case fl.rx && e.cfg.HalfDuplex != nil:
			// §6's instant compressed ack still occupies the shared
			// medium when half-duplex accounting is on.
			e.chargeAck(fl, ackWireLen(fl.rcv.ack(uint32(round))))
		}
		fl.rx = false
	}
}

// resolve retires the flows that are done — delivered, past their
// deadline, or out of rounds — and returns their results.
func (e *Engine) resolve() []FlowResult {
	var results []FlowResult
	live := e.flows[:0]
	for _, fl := range e.flows {
		var err error
		switch {
		case fl.snd.Done():
		case fl.deadline > 0 && fl.rounds >= fl.deadline:
			err = ErrDeadline
			if e.sched != nil {
				e.tot.Scheduler.DeadlineMisses++
			}
		case fl.rounds >= fl.maxRounds:
			err = ErrFlowBudget
		default:
			live = append(live, fl)
			continue
		}
		r := e.result(fl, err)
		e.tot.Totals.add(r.Stats)
		if r.Err == nil {
			e.tot.Delivered++
			e.tot.BytesDelivered += len(r.Datagram)
		} else {
			e.tot.Failed++
		}
		results = append(results, r)
	}
	clear(e.flows[len(live):])
	e.flows = live
	e.rr %= max(len(e.flows), 1)
	return results
}

// chargeAck converts one ack's wire bytes into half-duplex reverse
// airtime and charges it to the flow that caused it. Under DWFQ the same
// symbols are additionally debited from the flow's credit balance, so
// reverse airtime competes with the flow's own forward spend instead of
// being free. Callers guard on e.cfg.HalfDuplex != nil.
func (e *Engine) chargeAck(fl *engineFlow, wireBytes int) {
	n := e.cfg.HalfDuplex.airtime(wireBytes)
	fl.ackSymbols += n
	if e.sched != nil {
		fl.deficit -= int64(n)
		e.tot.Scheduler.AckSymbolsCharged += int64(n)
	}
}

// faultDeliver runs every flow's forward-path fault injector for one
// round: each flow's share of this round's frame is assembled
// into a wire-encodable Frame, handed to its injector (which may mangle
// it, hold it back, replay it, or swallow it in a blackout), and the
// frames actually delivered are flattened into per-(flow, block) decode
// groups. Every active flow's injector ticks every round, so blackouts
// burn down and held-back frames come due even in rounds the flow did
// not transmit.
func (e *Engine) faultDeliver(round int) {
	for _, fl := range e.flows {
		var share *Frame
		for k := range e.items {
			it := &e.items[k]
			if it.fl != fl || len(it.batch.IDs) == 0 {
				continue
			}
			if share == nil {
				share = &Frame{Seq: uint32(round), BlockBits: fl.layout}
			}
			share.Batches = append(share.Batches, it.batch)
		}
		frames := fl.inj.deliver(share, round)
		if len(frames) > 0 {
			fl.rx = true // the receiver saw something; it owes an ack
		}
		first := len(e.groups) // this flow's groups start here
		for _, f := range frames {
			for _, b := range f.Batches {
				var g *rxGroup
				for j := first; j < len(e.groups); j++ {
					if e.groups[j].block == b.Block {
						g = &e.groups[j]
						break
					}
				}
				if g == nil {
					g = e.addGroup(fl, b.Block)
				}
				g.batches = append(g.batches, b)
			}
		}
	}
}

// sendAck snapshots the receiver's per-block state as the ack it sends
// (charged as reverse airtime under half-duplex accounting).
func (e *Engine) sendAck(fl *engineFlow, round int) framing.Ack {
	a := fl.rcv.ack(uint32(round))
	if e.cfg.HalfDuplex != nil {
		e.chargeAck(fl, ackWireLen(a))
	}
	e.observe(fl, round, AckSent, a)
	return a
}

// applyAck folds one delivered ack into sender-side flow state: newly
// acknowledged blocks stop transmitting (ackBlock); under a
// FeedbackConfig, blocks the receiver still lacked after seeing their
// latest pass get a fast nack continuation instead of waiting out the
// retransmission timer.
func (e *Engine) applyAck(fl *engineFlow, a framing.Ack, round int) {
	e.observe(fl, round, AckDelivered, a)
	for i, decoded := range a.Decoded {
		if i >= len(fl.snd.acked) {
			break
		}
		if decoded {
			e.ackBlock(fl, i)
		} else if fl.arq != nil && fl.arq[i].inflight && int(a.Seq) >= fl.arq[i].lastTx {
			fl.arq[i].nack()
		}
	}
}

// ackBlock marks block i acknowledged at the sender. A newly acked block
// reports its symbol spend as of now (observeDecode) — retransmissions
// sent while a delayed ack was in flight are honestly included.
func (e *Engine) ackBlock(fl *engineFlow, i int) {
	if !fl.snd.acked[i] {
		fl.snd.acked[i] = true
		e.observeDecode(fl, i)
	}
}

// observe forwards a feedback-path event to the configured observer.
func (e *Engine) observe(fl *engineFlow, round int, kind FeedbackEventKind, a framing.Ack) {
	if e.cfg.Observer == nil {
		return
	}
	decoded := 0
	for _, d := range a.Decoded {
		if d {
			decoded++
		}
	}
	e.cfg.Observer.ObserveFeedback(FeedbackEvent{
		Flow:    fl.id,
		Round:   round,
		Kind:    kind,
		Blocks:  len(a.Decoded),
		Decoded: decoded,
	})
}

// result builds a flow's final result.
func (e *Engine) result(fl *engineFlow, ferr error) FlowResult {
	st := Stats{
		Frames:      fl.frames,
		SymbolsSent: fl.snd.SymbolsSent(),
		Blocks:      fl.snd.Blocks(),
		AckSymbols:  fl.ackSymbols,
	}
	if fl.fb != nil {
		for i := range fl.arq {
			st.Retransmissions += fl.arq[i].retx
		}
		st.AcksSent, st.AcksLost, _ = fl.fb.Counters()
	}
	st.BatchesRejected = fl.batchesRejected
	for i := range fl.rcv.blocks {
		st.SymbolsDeduped += fl.rcv.blocks[i].dups
		st.SymbolsOverflowed += fl.rcv.blocks[i].overflow
		st.DecodeAttempts += fl.rcv.blocks[i].attempts
		st.NarrowAttempts += fl.rcv.blocks[i].narrow
		st.Escalations += fl.rcv.blocks[i].escalations
	}
	if fl.inj != nil {
		st.Faults = fl.inj.stats
	}
	if air := st.SymbolsSent + st.AckSymbols; air > 0 {
		// Under half-duplex accounting AckSymbols is nonzero and the rate
		// is airtime-honest; otherwise this is the plain forward rate.
		st.Rate = float64(fl.bytes*8) / float64(air)
	}
	res := FlowResult{ID: fl.id, Stats: st, Err: ferr}
	if ferr == nil {
		got, err := fl.rcv.Datagram()
		if err != nil {
			res.Err = err
		} else {
			res.Datagram = got
		}
	}
	return res
}

// Drain steps until every flow resolves or maxSteps rounds pass (0 means
// no bound beyond the flows' own budgets), returning all results.
func (e *Engine) Drain(maxSteps int) []FlowResult {
	var out []FlowResult
	for steps := 0; e.Active() > 0; steps++ {
		if maxSteps > 0 && steps >= maxSteps {
			break
		}
		out = append(out, e.Step()...)
	}
	return out
}
