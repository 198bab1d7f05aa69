// Engine invariants: the conservation laws a correct multi-flow link
// engine obeys every round, no matter what the channel, the feedback
// path or the fault injector throws at it. The checker is wired behind
// EngineConfig.CheckInvariants and runs at the end of every Step on the
// engine thread; a violation panics with a diagnostic rather than
// letting a corrupted round propagate — soaks and chaos tests want the
// first broken law, not a downstream symptom.
package link

import "fmt"

// violate panics with a formatted invariant diagnostic.
func violate(round int, format string, args ...any) {
	panic(fmt.Sprintf("link: invariant violated at round %d: %s",
		round, fmt.Sprintf(format, args...)))
}

// checkInvariants asserts the engine's per-Step conservation laws:
//
//   - flow conservation: delivered + failed + active == flows admitted;
//   - ack monotonicity: a block once acked at the sender never un-acks;
//   - ack honesty: an acked block's receiver copy has verified — except
//     under reverse-path corruption/truncation faults, which can forge a
//     parseable ack the sender has no way to distrust (the flow then
//     resolves as an honest ErrIncomplete outage);
//   - symbol accounting: per-block symbol counts are non-negative and
//     their sum equals the flow's total — no symbol is charged twice or
//     conjured from nowhere;
//   - ARQ window: transmitted-but-unacked blocks never exceed the
//     configured in-flight window;
//   - bounded receiver memory: no block's accumulator exceeds
//     maxAccumSymbols, and its IDs and symbols stay in lockstep;
//   - ladder accounting: a block's escalations never exceed its narrow
//     attempts, nor those its decode attempts;
//   - round budget: an active flow is always within its budget (at the
//     budget it must have resolved this Step).
func (e *Engine) checkInvariants(round int) {
	t := &e.tot
	if got := t.Delivered + t.Failed + len(e.flows); got != t.Admitted {
		violate(round, "flow conservation: delivered(%d)+failed(%d)+active(%d)=%d, want %d admitted",
			t.Delivered, t.Failed, len(e.flows), got, t.Admitted)
	}
	// Mangled-but-parseable acks can claim blocks the receiver never
	// decoded; with those faults off, sender belief must match receiver
	// truth.
	ackForgeable := e.cfg.Faults != nil &&
		(e.cfg.Faults.AckCorrupt > 0 || e.cfg.Faults.AckTruncate > 0)
	for _, fl := range e.flows {
		if fl.prevAcked == nil {
			fl.prevAcked = make([]bool, len(fl.snd.acked))
		}
		for i, acked := range fl.snd.acked {
			if fl.prevAcked[i] && !acked {
				violate(round, "flow %d block %d regressed from acked", fl.id, i)
			}
			if acked && !ackForgeable && !fl.rcv.blocks[i].got {
				violate(round, "flow %d block %d acked but not decoded at the receiver", fl.id, i)
			}
			fl.prevAcked[i] = acked
		}
		sum := 0
		for b, n := range fl.snd.perBlock {
			if n < 0 {
				violate(round, "flow %d block %d has negative symbol count %d", fl.id, b, n)
			}
			sum += n
		}
		if sum != fl.snd.symbols {
			violate(round, "flow %d per-block symbols sum to %d, total says %d",
				fl.id, sum, fl.snd.symbols)
		}
		if fl.fb != nil {
			window := e.cfg.Feedback.window()
			inflight := 0
			for b := range fl.arq {
				if !fl.snd.acked[b] && fl.arq[b].inflight {
					inflight++
				}
			}
			if inflight > window {
				violate(round, "flow %d has %d blocks in flight, window is %d",
					fl.id, inflight, window)
			}
		}
		for i := range fl.rcv.blocks {
			blk := &fl.rcv.blocks[i]
			if len(blk.ids) != len(blk.syms) {
				violate(round, "flow %d block %d accumulator skew: %d ids, %d symbols",
					fl.id, i, len(blk.ids), len(blk.syms))
			}
			if seen := blk.seen.len(); len(blk.ids) > maxAccumSymbols || seen > maxAccumSymbols {
				violate(round, "flow %d block %d accumulator past bound: %d ids, %d seen",
					fl.id, i, len(blk.ids), seen)
			}
			if blk.escalations > blk.narrow || blk.narrow > blk.attempts {
				violate(round, "flow %d block %d ladder accounting: %d escalations, %d narrow, %d attempts",
					fl.id, i, blk.escalations, blk.narrow, blk.attempts)
			}
		}
		if fl.rounds > fl.maxRounds {
			violate(round, "flow %d at round %d of %d is still active",
				fl.id, fl.rounds, fl.maxRounds)
		}
	}
}
