// Deficit-weighted fair queuing for the multi-flow engine. The default
// admission order — a plain round-robin cursor over the flows — is fair
// in *visits* but not in *airtime*: a flow whose rate policy opens with a
// capacity-sized burst can fill the shared frame for rounds on end, so a
// handful of elephants starve every mouse behind them. The DWFQ
// scheduler replaces visit-fairness with spend-fairness: each flow earns
// a per-round symbol credit proportional to its weight, admission is
// clamped to the credit a flow has actually accumulated, and — under
// half-duplex accounting — the reverse-channel airtime a flow's acks
// consume is debited from the same account, so the §6 "free ack"
// idealization cannot hide a fairness cost (cf. the in-band full-duplex
// analysis in PAPERS.md, where reverse airtime is the first-order term).
//
// Priority classes are strict: a round serves every outstanding
// higher-class flow before any lower-class one (and can therefore starve
// lower classes — that is what strict priority means; use weights within
// a class for proportional sharing). Within a class, flows carrying a
// deadline are served earliest-deadline-first ahead of the rest, which
// rotate round-robin; credit accounting applies to all of them alike.
//
// Only the visit order and the credit rules live here. Both schedulers
// admit a visited flow through the same Engine.admit — ARQ gating, rate
// policy and batch accounting — which applies the credit clamp only
// under DWFQ.
package link

import (
	"errors"
	"sort"
)

// ErrDeadline reports a flow that missed its scheduling deadline
// (FlowConfig.Deadline) before every code block decoded.
var ErrDeadline = errors.New("link: flow missed its scheduling deadline")

// SchedulerConfig selects deficit-weighted fair queuing for an engine's
// admission phase (EngineConfig.Scheduler; nil means round-robin
// admission).
type SchedulerConfig struct {
	// Quantum is the symbol credit one unit of flow weight earns per
	// round (0 ⇒ 256). A flow of weight w accrues w·Quantum credit each
	// round and may admit batches while its balance covers their symbol
	// cost, so over time every backlogged flow's spend converges to its
	// weight share regardless of how greedy its rate policy bursts.
	Quantum int
	// Burst caps a flow's accumulated credit, in quanta of its own
	// earning rate (0 ⇒ 4): an idle or backpressured flow may bank at
	// most Burst rounds of credit, bounding the burst it can dump into
	// one frame when it wakes.
	Burst int
}

func (c SchedulerConfig) quantum() int {
	if c.Quantum <= 0 {
		return 256
	}
	return c.Quantum
}

func (c SchedulerConfig) burst() int {
	if c.Burst <= 0 {
		return 4
	}
	return c.Burst
}

// SchedulerStats exposes the DWFQ scheduler's accounting — credit
// granted and spent, reverse airtime charged, deadline misses, and the
// credit currently outstanding across active flows. Zero when the
// engine runs round-robin admission.
type SchedulerStats struct {
	// QuantaGranted is the total symbol credit granted across all flows
	// and rounds.
	QuantaGranted int64
	// SymbolsAdmitted is the forward symbols charged against flow
	// credits.
	SymbolsAdmitted int64
	// AckSymbolsCharged is the half-duplex reverse airtime debited from
	// the flows that caused it.
	AckSymbolsCharged int64
	// DeadlineMisses counts flows resolved with ErrDeadline.
	DeadlineMisses int64
	// DeficitOutstanding is the summed credit balance of the active
	// flows at snapshot time (negative balances — flows paying back ack
	// airtime — included).
	DeficitOutstanding int64
}

// dwfq is the engine-side scheduler state: configuration and a reusable
// visit-order scratch slice (its counters are Engine.tot.Scheduler).
type dwfq struct {
	cfg   SchedulerConfig
	order []*engineFlow
}

// visitOrder ranks the active flows for one round: strict priority
// first, then — within a class — deadline flows earliest-deadline-first
// ahead of the rest, which rotate by round so equal flows take turns at
// the front. The ordering decides who gets first claim on the shared
// frame budget; the deficit accounts decide how much anyone may spend.
func (s *dwfq) visitOrder(flows []*engineFlow, round int) []*engineFlow {
	s.order = append(s.order[:0], flows...)
	sort.SliceStable(s.order, func(i, j int) bool {
		a, b := s.order[i], s.order[j]
		if a.prio != b.prio {
			return a.prio > b.prio
		}
		ad, bd := a.deadline > 0, b.deadline > 0
		if ad != bd {
			return ad // deadline flows lead their class
		}
		if ad && bd {
			ra, rb := a.deadline-a.rounds, b.deadline-b.rounds
			if ra != rb {
				return ra < rb
			}
			return a.id < b.id
		}
		return false // non-deadline peers keep admission order; rotated below
	})
	// Rotate each class's non-deadline run by the round number so the
	// head-of-class position circulates (the deficit accounts do the
	// heavy fairness lifting; rotation just breaks head-of-line ties).
	for lo := 0; lo < len(s.order); {
		hi := lo
		for hi < len(s.order) &&
			s.order[hi].prio == s.order[lo].prio && s.order[hi].deadline == 0 {
			hi++
		}
		if n := hi - lo; n > 1 {
			rotateFlows(s.order[lo:hi], round%n)
			lo = hi
			continue
		}
		if hi == lo {
			lo++
		} else {
			lo = hi
		}
	}
	return s.order
}

// rotateFlows rotates fl left by k (0 ≤ k < len(fl)).
func rotateFlows(fl []*engineFlow, k int) {
	if k == 0 {
		return
	}
	tmp := make([]*engineFlow, k)
	copy(tmp, fl[:k])
	copy(fl, fl[k:])
	copy(fl[len(fl)-k:], tmp)
}

// scheduleDWFQ is the deficit-weighted visit order (EngineConfig.
// Scheduler). Every active flow ages and earns credit every round (so
// deadlines measure wall rounds, not service opportunities); admission
// (admit) walks the priority/deadline/rotation order and clamps each
// flow's batches to its credit balance and the remaining frame budget.
func (e *Engine) scheduleDWFQ(round int) {
	s := e.sched
	budget := e.cfg.frameSymbols()
	symbols := 0
	quantum := int64(s.cfg.quantum())
	burst := int64(s.cfg.burst())
	for _, fl := range s.visitOrder(e.flows, round) {
		fl.rounds++
		grant := quantum * int64(fl.weight)
		fl.deficit += grant
		e.tot.Scheduler.QuantaGranted += grant
		if cap := burst * grant; fl.deficit > cap {
			fl.deficit = cap
		}
		if symbols < budget { // else the frame is full: the flow keeps its credit
			symbols = e.admit(fl, round, symbols)
		}
	}
}
