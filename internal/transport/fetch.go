package transport

import (
	"context"
	"fmt"

	"spinal"
	"spinal/link"
)

// Config parameterizes a Fetcher.
type Config struct {
	// Params is the spinal code the fetch runs over (used when the
	// fetcher builds its own session; zero value ⇒ spinal.DefaultParams).
	Params spinal.Params
	// Options configure the fetcher-owned session: channel, rate policy,
	// feedback, half-duplex accounting, scheduler, round budget, ... The
	// fetcher registers itself as the session's FeedbackObserver for RTT
	// telemetry, overriding any WithFeedbackObserver among these.
	Options []link.Option
	// Session, when non-nil, is an existing session the fetch runs over
	// instead; the fetcher steps it, foreign flows resolving alongside
	// are returned in Result.Foreign, and Close leaves it open. RTT is
	// then estimated from segment completions only (the session's
	// observer slot belongs to its owner).
	Session *link.Session

	// SegmentBytes is the payload bytes per pipelined segment (one link
	// flow each; 0 ⇒ 1024).
	SegmentBytes int
	// InitWindow and MaxWindow bound the window of segments in flight
	// (0 ⇒ 2 and 64): it opens by one segment per delivered segment,
	// min(InitWindow + delivered, MaxWindow).
	InitWindow int
	MaxWindow  int
	// InitRTO, MinRTO and MaxRTO bound the reported retransmission
	// timeout, Result.RTO, in engine rounds (0 ⇒ 48, 16, 512). No
	// segment is timed out: the RTO describes the RTT telemetry, it does
	// not budget a segment.
	InitRTO int
	MinRTO  int
	MaxRTO  int
	// Deprecated: MaxRetries is ignored. A segment is sent once and lives
	// until it is delivered; the session's round budget (WithMaxRounds)
	// bounds it.
	MaxRetries int
	// WindowTrace, when non-nil, receives (step, cwnd) after every engine
	// round.
	WindowTrace func(step int, cwnd float64)
}

// orDefault is v, or def where v is unset (≤ 0).
func orDefault(v, def int) int {
	if v <= 0 {
		return def
	}
	return v
}

// Result reports one completed fetch.
type Result struct {
	// Payload is the reassembled datagram, byte-identical to what was
	// fetched.
	Payload []byte
	// Segments is the number of pipelined segments, one link flow each.
	Segments int
	// Deprecated: Retries is always 0; no segment is resubmitted.
	Retries int
	// Deprecated: Losses is always 0; nothing signals a loss.
	Losses int
	// Steps is the number of engine rounds the fetch drove.
	Steps int
	// SRTT and RTO are the final smoothed RTT estimate and retransmission
	// timeout, in rounds.
	SRTT float64
	RTO  int
	// CwndMax and CwndFinal are the peak and final windows, in segments.
	CwndMax   float64
	CwndFinal float64
	// SymbolsSent and AckSymbols aggregate the segments' airtime;
	// Goodput is payload bits per channel symbol over both.
	SymbolsSent int
	AckSymbols  int
	Goodput     float64
	// Foreign holds flows that resolved during the fetch but belong to
	// the surrounding session (Config.Session) or to an earlier fetch
	// that returned early, not this fetch.
	Foreign []link.Result
}

// segment is one pipelined unit of the payload in flight.
type segment struct {
	index  int
	txStep int  // step clock value when the segment was sent
	sample bool // an ack-telemetry RTT sample was taken for this segment
}

// Fetcher streams payloads over a link session as windowed segment
// pipelines. It is single-threaded: one Fetch at a time, and the fetcher
// must not be shared across goroutines.
type Fetcher struct {
	cfg   Config
	sess  *link.Session
	owned bool
	rtt   *rttEstimator

	// step is the fetcher's round clock, advanced once per engine round
	// it drives; both RTT sample endpoints use it.
	step     int
	inflight map[link.FlowID]*segment
}

// NewFetcher builds a fetcher and, unless cfg.Session is set, its own
// link session from cfg.Params and cfg.Options.
func NewFetcher(cfg Config) (*Fetcher, error) {
	f := &Fetcher{
		cfg: cfg,
		rtt: newRTTEstimator(orDefault(cfg.InitRTO, 48),
			orDefault(cfg.MinRTO, 16), orDefault(cfg.MaxRTO, 512)),
		inflight: make(map[link.FlowID]*segment),
	}
	if cfg.Session != nil {
		f.sess = cfg.Session
		return f, nil
	}
	p := cfg.Params
	if p == (spinal.Params{}) {
		p = spinal.DefaultParams()
	}
	opts := append(append([]link.Option(nil), cfg.Options...),
		link.WithFeedbackObserver(f))
	s, err := link.NewSession(p, opts...)
	if err != nil {
		return nil, err
	}
	f.sess, f.owned = s, true
	return f, nil
}

// Close releases the fetcher's own session; a caller-provided
// Config.Session is left open for its owner.
func (f *Fetcher) Close() error {
	if !f.owned {
		return nil
	}
	return f.sess.Close()
}

// ObserveFeedback implements link.FeedbackObserver: the first delivered
// ack of each in-flight segment is an RTT sample — the earliest
// telemetry the reverse channel offers, rounds before the segment
// completes. Called synchronously from inside the session's Step, on the
// fetching goroutine.
func (f *Fetcher) ObserveFeedback(ev link.FeedbackEvent) {
	if ev.Kind != link.AckDelivered {
		return
	}
	seg, ok := f.inflight[ev.Flow]
	if !ok || seg.sample {
		return
	}
	seg.sample = true
	f.rtt.observe(f.step + 1 - seg.txStep) // the current round is completing
}

// Fetch streams payload through the session as a pipeline of segments
// and returns the reassembled bytes with transfer statistics. Each
// segment is sent once, as one link flow, and kept until it is
// delivered: the rateless receiver never loses a segment, it only waits
// for more symbols. A segment whose flow resolves with an error (the
// session's round budget, a deadline) fails the fetch with that error
// wrapped, as does context cancellation; segments still in flight keep
// transmitting on the session and resolve as foreign flows of its next
// user.
func (f *Fetcher) Fetch(ctx context.Context, payload []byte) (*Result, error) {
	// Flows of an earlier fetch that returned early are not this fetch's.
	clear(f.inflight)
	segBytes := orDefault(f.cfg.SegmentBytes, 1024)
	n := max(1, (len(payload)+segBytes-1)/segBytes) // an empty payload is one empty segment
	initWindow, maxWindow := orDefault(f.cfg.InitWindow, 2), orDefault(f.cfg.MaxWindow, 64)
	window := func(delivered int) int { return min(initWindow+delivered, maxWindow) }

	res := &Result{Segments: n}
	parts := make([][]byte, n)
	sent, delivered := 0, 0
	for delivered < n {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		for ; sent < n && len(f.inflight) < window(delivered); sent++ {
			lo := min(sent*segBytes, len(payload))
			id, err := f.sess.Send(payload[lo:min(lo+segBytes, len(payload))])
			if err != nil {
				return nil, err
			}
			f.inflight[id] = &segment{index: sent, txStep: f.step}
		}
		results, err := f.sess.Step(ctx)
		if err != nil {
			return nil, err
		}
		f.step++
		res.Steps++
		for _, r := range results {
			seg, mine := f.inflight[r.ID]
			if !mine {
				res.Foreign = append(res.Foreign, r)
				continue
			}
			delete(f.inflight, r.ID)
			res.SymbolsSent += r.Stats.SymbolsSent
			res.AckSymbols += r.Stats.AckSymbols
			if r.Err != nil {
				return nil, fmt.Errorf("transport: segment %d: %w", seg.index, r.Err)
			}
			if !seg.sample {
				// No ack telemetry (no WithFeedback, or a shared
				// session): the completion itself is the RTT sample.
				f.rtt.observe(f.step - seg.txStep)
			}
			parts[seg.index] = r.Datagram
			delivered++
		}
		if f.cfg.WindowTrace != nil {
			f.cfg.WindowTrace(f.step, float64(window(delivered)))
		}
	}

	for _, p := range parts {
		res.Payload = append(res.Payload, p...)
	}
	res.SRTT = f.rtt.srtt
	res.RTO = f.rtt.rto
	res.CwndFinal = float64(window(delivered))
	res.CwndMax = res.CwndFinal // the window never shrinks
	if air := res.SymbolsSent + res.AckSymbols; air > 0 {
		res.Goodput = float64(8*len(res.Payload)) / float64(air)
	}
	return res, nil
}

// Fetch is the one-shot convenience: build a fetcher, stream payload,
// close. See Fetcher for the reusable form.
func Fetch(ctx context.Context, payload []byte, cfg Config) (*Result, error) {
	f, err := NewFetcher(cfg)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return f.Fetch(ctx, payload)
}
