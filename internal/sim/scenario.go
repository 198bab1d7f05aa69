// Scenario driver: named time-varying channel workloads through the
// multi-flow link engine, with goodput and outage accounting. This is
// where the paper's rateless claim meets the conditions it was made for —
// channels whose SNR moves while a message is in flight.
package sim

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"

	"spinal/channel"
	"spinal/code"
	"spinal/internal/core"
	"spinal/link"
)

// ScenarioConfig drives MeasureScenario.
type ScenarioConfig struct {
	Params core.Params
	// Code selects the channel code every flow runs, by spec: "spinal"
	// (or empty — the code of Params), "raptor", "strider", "turbo",
	// "ldpc" or "ldpc:RATE". Every scenario runs unchanged over any code
	// — this is the bake-off's steering wheel.
	Code string
	// Scenario names the channel workload: "burst" (Gilbert–Elliott
	// good/bad Markov states), "walk" (bounded SNR random walk),
	// "trace:<file>" (replayed SNR-vs-time series), "churn" (mixed
	// channel models with flow arrivals replacing departures),
	// "feedback-delay" (mixed-SNR AWGN with acks delayed 8 engine
	// rounds), "feedback-loss" (acks delayed 2 rounds and 30% lost —
	// the sender's retransmission timers carry the transfer), "chaos"
	// (the churn mix under adversarial forward-path faults: reorder,
	// duplication, truncation, corruption, blackout bursts), or
	// "chaos-feedback" (chaos plus a delayed lossy reverse channel whose
	// acks suffer the same fault kinds).
	Scenario string
	// Policy names the per-flow rate policy: "fixed" or "fixed:<n>",
	// "capacity" or "capacity:<estDB>", "tracking" or "tracking:<estDB>".
	// Empty means "tracking". Estimates default to the scenario's nominal
	// (long-run) SNR — deliberately stale on time-varying channels.
	Policy string
	// Flows is the total number of datagrams (0 ⇒ 16).
	Flows int
	// Concurrency caps flows in flight (0 ⇒ min(Flows, 8)).
	Concurrency int
	// MinBytes/MaxBytes bound datagram sizes (defaults 64/160).
	MinBytes, MaxBytes int
	// MaxRounds is the per-flow give-up budget in scheduling rounds
	// (0 ⇒ 64) — the outage deadline.
	MaxRounds int
	// MaxBlockBits, FrameSymbols and Shards pass through to the engine.
	MaxBlockBits int
	FrameSymbols int
	Shards       int
	Seed         int64
	// Feedback overrides the scenario's ARQ feedback impairment: nil
	// means the scenario default — instant perfect acks for the channel
	// scenarios, the named impairment for the feedback-* scenarios. The
	// experiments' delay sweeps set it explicitly.
	Feedback *link.FeedbackConfig
	// Faults overrides the scenario's adversarial fault injection: nil
	// means the scenario default — none for the polite scenarios, the
	// full fault mix for the chaos scenarios. The degradation sweeps set
	// it explicitly (typically via FaultConfig.Scale).
	Faults *link.FaultConfig
	// HalfDuplex charges reverse-channel (ack) airtime against goodput
	// (link.WithHalfDuplex at the default reverse modulation density):
	// the charged symbols are reported in ScenarioResult.AckSymbols and
	// included in Goodput's denominator.
	HalfDuplex bool
	// Scheduler selects the engine's admission scheduler: "" or "rr" is
	// the default round-robin, "dwfq" is deficit-weighted fair queuing
	// (link.WithScheduler). The mice-elephants scenario compares the two.
	Scheduler string
	// SchedulerQuantum is the DWFQ per-weight-unit symbol credit per
	// round (0 ⇒ the engine default). The fairness scenarios set it to
	// the processor-sharing fair share, FrameSymbols/Flows.
	SchedulerQuantum int
}

// ScenarioResult aggregates a scenario run. It is flat and map-free so
// encoding/json renders it byte-for-byte reproducibly (the golden tests
// depend on that).
type ScenarioResult struct {
	Scenario string `json:"scenario"`
	Policy   string `json:"policy"`
	// Code names the channel code the run used; omitted from the JSON
	// when empty (spinal) so the pre-bake-off golden outcomes stay
	// byte-identical.
	Code      string `json:"code,omitempty"`
	Flows     int    `json:"flows"`
	Delivered int    `json:"delivered"`
	// Outages counts flows that exhausted their round budget (or were
	// delivered corrupt — never observed, but counted against goodput).
	Outages int   `json:"outages"`
	Bytes   int64 `json:"bytes"`   // payload bytes delivered
	Symbols int64 `json:"symbols"` // channel symbols spent, failed flows included
	Rounds  int   `json:"rounds"`  // engine scheduling rounds consumed
	// Goodput is delivered payload bits per channel symbol spent — the
	// airtime-honest rate (outage symbols count, outage bits do not).
	Goodput float64 `json:"goodput_bits_per_symbol"`
	// OutageRate is Outages / Flows.
	OutageRate float64 `json:"outage_rate"`
	// MeanStateDB is the round-averaged mean of the active flows' channel
	// states — the SNR trajectory the scenario actually exercised,
	// observed through channel.Model's StateDB.
	MeanStateDB float64 `json:"mean_state_db"`
	// Retransmissions counts timeout-triggered retransmissions across all
	// flows; AcksSent/AcksLost count reverse-channel traffic. All three
	// are zero under instant perfect feedback.
	Retransmissions int64 `json:"retransmissions"`
	AcksSent        int64 `json:"acks_sent"`
	AcksLost        int64 `json:"acks_lost"`
	// AckSymbols counts the reverse-channel airtime charged under
	// half-duplex accounting (ScenarioConfig.HalfDuplex); it is part of
	// Goodput's denominator, and omitted from the JSON when zero so the
	// pre-half-duplex golden outcomes stay byte-identical.
	AckSymbols int64 `json:"ack_symbols,omitempty"`
	// FramesFaulted and AcksFaulted total the injector's forward- and
	// reverse-path fault events across all flows (reorders, duplicates,
	// truncations, corruptions, blackout swallows); BatchesRejected counts
	// batches the receivers dropped with a typed error, and
	// SymbolsDeduped the replayed symbol observations their dedup
	// absorbed. All are omitted from the JSON when zero so the fault-free
	// golden outcomes stay byte-identical.
	FramesFaulted   int64 `json:"frames_faulted,omitempty"`
	AcksFaulted     int64 `json:"acks_faulted,omitempty"`
	BatchesRejected int64 `json:"batches_rejected,omitempty"`
	SymbolsDeduped  int64 `json:"symbols_deduped,omitempty"`
	// Scheduler names the admission scheduler when it is not the default
	// round-robin; JainIndex and the MiceP*Rounds percentiles are the
	// mice-elephants scenario's fairness metrics — Jain's index over
	// per-flow throughput (delivered bits per sojourn round) and the mice
	// flows' completion-latency percentiles. All omitted from the JSON
	// when unset so the pre-scheduler golden outcomes stay byte-identical.
	Scheduler     string  `json:"scheduler,omitempty"`
	JainIndex     float64 `json:"jain_index,omitempty"`
	MiceP50Rounds int     `json:"mice_p50_rounds,omitempty"`
	MiceP95Rounds int     `json:"mice_p95_rounds,omitempty"`
	MiceP99Rounds int     `json:"mice_p99_rounds,omitempty"`
	// SRTTRounds and CwndMax are the fetch-cubic scenario's transport
	// metrics: the final smoothed RTT estimate in rounds and the peak
	// window in segments.
	SRTTRounds float64 `json:"srtt_rounds,omitempty"`
	CwndMax    float64 `json:"cwnd_max,omitempty"`
}

func (r ScenarioResult) String() string {
	s := fmt.Sprintf("%s/%s: %d/%d delivered, %.3f b/sym goodput, %.0f%% outage, %d rounds, %d symbols, mean state %.1f dB",
		r.Scenario, r.Policy, r.Delivered, r.Flows, r.Goodput, 100*r.OutageRate, r.Rounds, r.Symbols, r.MeanStateDB)
	if r.AcksSent > 0 {
		s += fmt.Sprintf(", %d retx, %d/%d acks lost", r.Retransmissions, r.AcksLost, r.AcksSent)
	}
	if r.AckSymbols > 0 {
		s += fmt.Sprintf(", %d ack symbols charged", r.AckSymbols)
	}
	if r.FramesFaulted > 0 || r.AcksFaulted > 0 {
		s += fmt.Sprintf(", %d frame / %d ack faults, %d batches rejected, %d symbols deduped",
			r.FramesFaulted, r.AcksFaulted, r.BatchesRejected, r.SymbolsDeduped)
	}
	if r.JainIndex > 0 {
		sched := r.Scheduler
		if sched == "" {
			sched = "rr"
		}
		s += fmt.Sprintf(", %s jain %.3f, mice p50/p95/p99 %d/%d/%d rounds",
			sched, r.JainIndex, r.MiceP50Rounds, r.MiceP95Rounds, r.MiceP99Rounds)
	}
	if r.SRTTRounds > 0 {
		s += fmt.Sprintf(", srtt %.1f rounds, peak window %.1f", r.SRTTRounds, r.CwndMax)
	}
	return s
}

// Scenarios lists the named scenarios (trace scenarios additionally take
// a file argument).
func Scenarios() []string {
	return []string{"burst", "walk", "trace:<file>", "churn",
		"feedback-delay", "feedback-loss", "chaos", "chaos-feedback",
		"mice-elephants", "fetch-cubic"}
}

// ChaosFaults is the adversarial fault mix of the chaos scenarios:
// every forward-path fault kind on at once, at rates high enough that a
// run of a few dozen rounds sees them all, low enough that transfers
// still complete. ackFaults adds the reverse-path counterparts
// (chaos-feedback). Exported so the degradation experiment and
// cmd/spinalcat sweep the same mix the golden matrix pins.
func ChaosFaults(ackFaults bool) link.FaultConfig {
	fc := link.FaultConfig{
		FrameReorder:   0.15,
		FrameDup:       0.10,
		FrameTruncate:  0.05,
		FrameCorrupt:   0.05,
		Blackout:       0.02,
		ReorderDepth:   4,
		BlackoutRounds: 4,
	}
	if ackFaults {
		fc.AckReorder = 0.15
		fc.AckDup = 0.10
		fc.AckTruncate = 0.05
		fc.AckCorrupt = 0.05
	}
	return fc
}

// scenarioChannels builds the per-flow channel factory for the named
// scenario plus the scenario's default feedback impairment (nil for the
// channel scenarios — instant perfect acks) and default fault injection
// (nil for all but the chaos scenarios); the returned function yields
// flow i's model and the nominal SNR estimate a sender would start from.
// Trace files are read once here, not once per flow.
func scenarioChannels(name string, seed int64) (func(i int) (channel.Model, float64), *link.FeedbackConfig, *link.FaultConfig, error) {
	flowSeed := func(i int) int64 { return seed + int64(i)*7919 }
	burst := func(i int) (channel.Model, float64) {
		// ≈250-symbol bad bursts, 20% stationary bad fraction: deep enough
		// to straddle whole blocks, rare enough that the good state sets
		// the long-run estimate.
		return channel.NewGilbertElliott(18, 2, 0.001, 0.004, flowSeed(i)), 18
	}
	walk := func(i int) (channel.Model, float64) {
		return channel.NewWalk(15, 3, 25, 1, 192, flowSeed(i)), 15
	}
	// The feedback scenarios hold the forward channel steady — per-flow
	// AWGN at mixed SNRs, low enough that blocks routinely need more than
	// one pass — so every goodput difference is attributable to the
	// reverse path: ack delay, ack loss, and the ARQ machinery they
	// exercise (timers, backoff, chase combining).
	feedbackMix := func(i int) (channel.Model, float64) {
		snr := []float64{7, 10, 14}[i%3]
		return channel.NewAWGN(snr, flowSeed(i)), snr
	}
	// The chaos scenarios ride the churn mix: time-varying media plus
	// arrivals replacing departures is the population the fault injector
	// should be stressing, not a single quiet AWGN flow.
	churn := func(i int) (channel.Model, float64) {
		switch i % 3 {
		case 0:
			return burst(i)
		case 1:
			return walk(i)
		default:
			snr := []float64{8, 12, 18, 25}[(i/3)%4]
			return channel.NewAWGN(snr, flowSeed(i)), snr
		}
	}
	switch {
	case name == "burst":
		return burst, nil, nil, nil
	case name == "walk":
		return walk, nil, nil, nil
	case strings.HasPrefix(name, "trace:"):
		segs, err := channel.LoadTrace(strings.TrimPrefix(name, "trace:"))
		if err != nil {
			return nil, nil, nil, err
		}
		return func(i int) (channel.Model, float64) {
			tr := channel.NewTrace(segs, flowSeed(i))
			return tr, tr.MeanDB()
		}, nil, nil, nil
	case name == "churn":
		// Mixed media across the flow population.
		return churn, nil, nil, nil
	case name == "feedback-delay":
		return feedbackMix, &link.FeedbackConfig{DelayRounds: 8}, nil, nil
	case name == "feedback-loss":
		return feedbackMix, &link.FeedbackConfig{DelayRounds: 2, Loss: 0.3}, nil, nil
	case name == "chaos":
		fc := ChaosFaults(false)
		return churn, nil, &fc, nil
	case name == "chaos-feedback":
		fc := ChaosFaults(true)
		return churn, &link.FeedbackConfig{DelayRounds: 2, Loss: 0.1}, &fc, nil
	case name == "mice-elephants":
		// Fairness scenario: a homogeneous steady 12 dB medium, so every
		// completion-latency difference between the bimodal flow sizes is
		// attributable to scheduling, not channel luck.
		return func(i int) (channel.Model, float64) {
			return channel.NewAWGN(12, flowSeed(i)), 12
		}, nil, nil, nil
	}
	return nil, nil, nil, fmt.Errorf("sim: unknown scenario %q (want burst, walk, trace:<file>, churn, feedback-delay, feedback-loss, chaos, chaos-feedback, mice-elephants or fetch-cubic)", name)
}

// Bounds on NewPolicy's specs. An estimate past ±maxPolicyDB is no
// radio's SNR, and far past it the capacity formula overflows to +Inf and
// a capacity burst collapses to one subpass per round — what a NaN
// estimate does. maxFixedSubpasses is the link receiver's per-block
// symbol bound (1<<16; ErrBlockFull past it): a spinal block of at least
// Ways chunks gets a symbol in every subpass, so a larger fixed:n asks one
// round for more symbols than a receiver keeps, and the sender builds all
// their IDs in one slice first.
const (
	maxPolicyDB       = 100
	maxFixedSubpasses = 1 << 16
)

// NewPolicy builds a fresh RatePolicy from its spec (see
// ScenarioConfig.Policy); hintDB seeds estimate-based policies when the
// spec does not carry its own. Tracking policies are stateful, so every
// flow gets its own value. Specs outside the bounds above are rejected.
func NewPolicy(spec string, hintDB float64) (link.RatePolicy, error) {
	if spec == "" {
		spec = "tracking"
	}
	name, arg, hasArg := strings.Cut(spec, ":")
	estimate := func() (float64, error) {
		est := hintDB
		if hasArg {
			var err error
			if est, err = strconv.ParseFloat(arg, 64); err != nil {
				return 0, err
			}
		}
		if !(math.Abs(est) <= maxPolicyDB) { // NaN fails this too
			return 0, fmt.Errorf("estimate %v dB outside ±%d dB", est, maxPolicyDB)
		}
		return est, nil
	}
	switch name {
	case "fixed":
		n := 1
		if hasArg {
			v, err := strconv.Atoi(arg)
			if err != nil || v < 1 || v > maxFixedSubpasses {
				return nil, fmt.Errorf("sim: bad fixed-rate subpass count %q (want 1..%d)", arg, maxFixedSubpasses)
			}
			n = v
		}
		return link.FixedRate(n), nil
	case "capacity":
		est, err := estimate()
		if err != nil {
			return nil, fmt.Errorf("sim: bad capacity estimate %q: %v", arg, err)
		}
		return link.CapacityRate{SNREstimateDB: est}, nil
	case "tracking":
		est, err := estimate()
		if err != nil {
			return nil, fmt.Errorf("sim: bad tracking estimate %q: %v", arg, err)
		}
		return link.NewTrackingRate(est), nil
	}
	return nil, fmt.Errorf("sim: unknown rate policy %q (want fixed[:n], capacity[:db] or tracking[:db])", spec)
}

// MeasureScenario runs the named time-varying channel workload through a
// link.Engine and aggregates goodput and outage statistics. Runs are
// deterministic given Seed.
func MeasureScenario(cfg ScenarioConfig) (ScenarioResult, error) {
	if cfg.Scenario == "fetch-cubic" {
		// The fetch scenario is driven by the transport tier's fetcher, not
		// the flow-population loop below.
		return measureFetchScenario(cfg)
	}
	flows := cfg.Flows
	if flows <= 0 {
		flows = 16
	}
	conc := cfg.Concurrency
	if conc <= 0 {
		conc = 8
	}
	if conc > flows {
		conc = flows
	}
	minB, maxB := cfg.MinBytes, cfg.MaxBytes
	if minB <= 0 {
		minB = 64
	}
	if maxB <= 0 {
		maxB = 160
	}
	if cfg.MinBytes <= 0 && maxB < minB {
		minB = maxB // an explicit small MaxBytes wins over the default floor
	}
	if maxB < minB {
		// Explicitly contradictory bounds pin the size at the minimum
		// rather than silently reverting to the default span.
		maxB = minB
	}
	maxRounds := cfg.MaxRounds
	if maxRounds <= 0 {
		maxRounds = 64
	}
	policy := cfg.Policy
	if policy == "" {
		policy = "tracking"
	}

	res := ScenarioResult{Scenario: cfg.Scenario, Policy: policy, Code: cfg.Code,
		Scheduler: cfg.Scheduler, Flows: flows}

	newModel, feedback, faults, err := scenarioChannels(cfg.Scenario, cfg.Seed)
	if err != nil {
		return res, err
	}
	if cfg.Feedback != nil {
		feedback = cfg.Feedback
	}
	if cfg.Faults != nil {
		faults = cfg.Faults
	}

	opts := []link.Option{
		link.WithMaxBlockBits(cfg.MaxBlockBits),
		link.WithCodecPool(cfg.Shards),
		link.WithFrameSymbols(cfg.FrameSymbols),
		link.WithSeed(cfg.Seed),
		link.WithMaxRounds(maxRounds),
		// Every scenario run doubles as an invariant soak: conservation
		// violations panic here instead of skewing a golden number.
		link.WithInvariantChecks(),
	}
	if feedback != nil {
		opts = append(opts, link.WithFeedback(*feedback))
	}
	if faults != nil {
		opts = append(opts, link.WithFaults(*faults))
	}
	if cfg.HalfDuplex {
		opts = append(opts, link.WithHalfDuplex(0))
	}
	switch cfg.Scheduler {
	case "", "rr":
	case "dwfq":
		opts = append(opts, link.WithScheduler(link.SchedulerConfig{Quantum: cfg.SchedulerQuantum}))
	default:
		return res, fmt.Errorf("sim: unknown scheduler %q (want rr or dwfq)", cfg.Scheduler)
	}
	if cfg.Code != "" {
		c, err := code.Parse(cfg.Code, cfg.Params)
		if err != nil {
			return res, err
		}
		opts = append(opts, link.WithCode(c))
	}
	s, err := link.NewSession(cfg.Params, opts...)
	if err != nil {
		return res, err
	}
	defer s.Close()
	ctx := context.Background()

	rng := rand.New(rand.NewSource(cfg.Seed))
	want := make(map[link.FlowID][]byte, conc)
	// Fairness bookkeeping for the mice-elephants scenario: admission
	// round and size class per flow, so sojourn times and per-flow
	// throughput can be attributed after resolution.
	miceElephants := cfg.Scenario == "mice-elephants"
	type flowMeta struct {
		admitRound int
		elephant   bool
	}
	meta := make(map[link.FlowID]flowMeta, conc)
	var flowThroughput []float64
	var miceSojourns []int
	// Active channels live in an ID-ordered slice, not a map: the
	// per-round StateDB sum must visit flows in a fixed order or float
	// rounding would leak map iteration order into the golden results.
	type activeFlow struct {
		id    link.FlowID
		model channel.Model
	}
	var active []activeFlow
	admitted := 0
	admit := func() error {
		model, hintDB := newModel(admitted)
		rate, err := NewPolicy(policy, hintDB)
		if err != nil {
			return err
		}
		var n int
		elephant := false
		if miceElephants {
			// Deterministic bimodal mix, sized by index: every 8th flow is a
			// 1 KiB elephant, the rest are sub-128 B mice — the same
			// population under every scheduler, so the fairness percentiles
			// compare scheduling and nothing else.
			if admitted%8 == 0 {
				n, elephant = 1024, true
			} else {
				n = 64 + 16*(admitted%4)
			}
		} else {
			n = minB
			if maxB > minB {
				n += rng.Intn(maxB - minB + 1)
			}
		}
		data := make([]byte, n)
		rng.Read(data)
		id, err := s.Send(data, link.WithChannel(model), link.WithRatePolicy(rate))
		if err != nil {
			return err
		}
		want[id] = data
		meta[id] = flowMeta{admitRound: res.Rounds, elephant: elephant}
		active = append(active, activeFlow{id, model})
		admitted++
		return nil
	}

	for admitted < flows && s.Active() < conc {
		if err := admit(); err != nil {
			return res, err
		}
	}
	var stateSum float64
	var stateN int
	for s.Active() > 0 {
		finished, err := s.Step(ctx)
		if err != nil {
			return res, err
		}
		res.Rounds++
		// Observe the SNR trajectory the active population is riding.
		for _, af := range active {
			stateSum += af.model.StateDB()
			stateN++
		}
		for _, r := range finished {
			// Each resolved flow counts exactly once, as an outage or a
			// delivery: a budget-exhausted flow (ErrFlowBudget) carries a
			// nil datagram, so folding the error and corruption checks
			// into one increment keeps it from being double-counted in
			// the outage fraction (TestScenarioChurnOutageAccounting pins
			// Delivered + Outages == Flows).
			switch {
			case r.Err != nil, !bytes.Equal(r.Datagram, want[r.ID]):
				res.Outages++
			default:
				res.Delivered++
				res.Bytes += int64(len(r.Datagram))
				if miceElephants {
					m := meta[r.ID]
					sojourn := res.Rounds - m.admitRound
					if sojourn < 1 {
						sojourn = 1
					}
					flowThroughput = append(flowThroughput,
						float64(8*len(r.Datagram))/float64(sojourn))
					if !m.elephant {
						miceSojourns = append(miceSojourns, sojourn)
					}
				}
			}
			delete(want, r.ID)
			delete(meta, r.ID)
			for i := range active {
				if active[i].id == r.ID {
					active = append(active[:i], active[i+1:]...)
					break
				}
			}
			if admitted < flows {
				if err := admit(); err != nil {
					return res, err
				}
			}
		}
	}
	// The link counters are the session's totals over every resolved flow.
	t := s.Metrics().Totals
	res.Symbols = int64(t.SymbolsSent)
	res.Retransmissions = int64(t.Retransmissions)
	res.AcksSent = int64(t.AcksSent)
	res.AcksLost = int64(t.AcksLost)
	res.AckSymbols = int64(t.AckSymbols)
	res.FramesFaulted = int64(t.Faults.Frames())
	res.AcksFaulted = int64(t.Faults.Acks())
	res.BatchesRejected = int64(t.BatchesRejected)
	res.SymbolsDeduped = int64(t.SymbolsDeduped)
	if air := res.Symbols + res.AckSymbols; air > 0 {
		// Airtime-honest goodput: under half-duplex accounting the acks'
		// symbols count against it too.
		res.Goodput = float64(res.Bytes*8) / float64(air)
	}
	res.OutageRate = float64(res.Outages) / float64(flows)
	if stateN > 0 {
		res.MeanStateDB = stateSum / float64(stateN)
	}
	if miceElephants {
		res.JainIndex = jainIndex(flowThroughput)
		res.MiceP50Rounds = percentileInt(miceSojourns, 50)
		res.MiceP95Rounds = percentileInt(miceSojourns, 95)
		res.MiceP99Rounds = percentileInt(miceSojourns, 99)
	}
	return res, nil
}

// jainIndex is Jain's fairness index (Σx)²/(n·Σx²) over per-flow
// throughput: 1.0 is perfect fairness, 1/n is one flow taking everything.
func jainIndex(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum, sumSq float64
	for _, x := range xs {
		sum += x
		sumSq += x * x
	}
	if sumSq == 0 {
		return 0
	}
	return sum * sum / (float64(len(xs)) * sumSq)
}

// percentileInt is the nearest-rank percentile of xs (sorted copy; 0 for
// an empty slice).
func percentileInt(xs []int, p int) int {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]int(nil), xs...)
	sort.Ints(sorted)
	rank := (p*len(sorted) + 99) / 100
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}
