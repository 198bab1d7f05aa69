package link

import (
	"math"

	"spinal/internal/capacity"
)

// RateObserver is the optional feedback half of a RatePolicy: the engine
// reports every decoded block back to the policy — how many bits it
// carried and how many channel symbols it cost end to end. Policies that
// implement it can track a time-varying channel; policies that don't are
// left alone.
type RateObserver interface {
	// ObserveDecode records that a blockBits-bit block verified after the
	// flow spent symbolsSpent channel symbols on it.
	ObserveDecode(blockBits, symbolsSpent int)
}

// minEstDB and maxEstDB bound the SNR estimates the rate policies act
// on: TrackingRate's default clamp, and where capacityBurst sends
// non-finite estimates.
const minEstDB, maxEstDB = -10, 40

// capacityBurst is the capacity-seeded burst CapacityRate and
// TrackingRate share, in units of unitSymbols symbols (≥ 1 unit):
// enough to bring a blockBits-bit block to blockBits/(margin·C(snrDB))
// symbols sent, the receiver's likely decoding point, then growth times
// that target per call once it is passed. A zero margin means 0.8, a zero
// growth 0.25. A NaN or −Inf estimate paces as minEstDB, +Inf as
// maxEstDB; finite estimates are used as given.
func capacityBurst(snrDB, margin, growth float64, blockBits, unitSymbols, symbolsSent int) int {
	switch {
	case math.IsNaN(snrDB), math.IsInf(snrDB, -1):
		snrDB = minEstDB
	case math.IsInf(snrDB, 1):
		snrDB = maxEstDB
	}
	if margin == 0 {
		margin = 0.8
	}
	if growth == 0 {
		growth = 0.25
	}
	c := max(capacity.AWGNdB(snrDB)*margin, 0.05)
	target := float64(blockBits) / c
	want := target * growth
	if float64(symbolsSent) < target {
		want = target - float64(symbolsSent)
	}
	return max(int(math.Ceil(want/float64(unitSymbols))), 1)
}

// TrackingRate is a closed-loop RatePolicy for time-varying channels. It
// keeps a running effective-SNR estimate and paces each block like
// CapacityRate — an opening burst of blockBits/(margin·C(est)) symbols,
// then geometric trickle — but unlike CapacityRate the estimate moves:
// every decoded block implies an achieved rate (blockBits/symbolsSpent),
// whose capacity-inverse is an SNR observation. Blocks that decode at
// their burst size confirm the channel is at least as good as estimated,
// so the policy probes upward by ProbeDB; blocks that drag through
// trickle rounds pull the estimate down by exponential averaging. On a
// bursty channel this walks the pass schedule fast through good periods
// and backs off through bad ones instead of trusting a stale estimate or
// trickling one subpass per round.
//
// The per-round request is clamped so one block never asks for more than
// MaxRoundSymbols, keeping a single flow inside the engine's shared-frame
// backpressure contract even when the estimate is badly wrong.
//
// A TrackingRate is stateful and must not be shared between flows; it is
// not safe for concurrent use (the engine calls it only from its own
// thread).
type TrackingRate struct {
	// Margin derates capacity for the code's gap; 0 means 0.8.
	Margin float64
	// Alpha is the exponential-averaging weight of downward SNR
	// observations; 0 means 0.5.
	Alpha float64
	// ProbeDB is the upward probe applied when a block decodes at its
	// burst size; 0 means 1 dB.
	ProbeDB float64
	// MinDB/MaxDB clamp the estimate (defaults -10 and 40).
	MinDB, MaxDB float64
	// MaxRoundSymbols caps the symbols one block may request per round;
	// 0 means 4096 (the engine's default frame budget).
	MaxRoundSymbols int

	estDB float64
}

// NewTrackingRate creates a tracking policy starting from initialSNRdB.
func NewTrackingRate(initialSNRdB float64) *TrackingRate {
	t := &TrackingRate{MinDB: minEstDB, MaxDB: maxEstDB}
	t.estDB = clampF(initialSNRdB, t.MinDB, t.MaxDB)
	return t
}

// EstimateDB reports the current effective-SNR estimate.
func (t *TrackingRate) EstimateDB() float64 { return t.estDB }

func (t *TrackingRate) margin() float64 {
	if t.Margin == 0 {
		return 0.8
	}
	return t.Margin
}

func (t *TrackingRate) maxRoundSymbols() int {
	if t.MaxRoundSymbols <= 0 {
		return 4096
	}
	return t.MaxRoundSymbols
}

func (t *TrackingRate) bounds() (lo, hi float64) {
	lo, hi = t.MinDB, t.MaxDB
	if lo == 0 && hi == 0 {
		lo, hi = minEstDB, maxEstDB
	}
	return lo, hi
}

// SubpassBudget implements RatePolicy: burst to the estimated decoding
// point, then trickle, never exceeding MaxRoundSymbols per block per
// round.
func (t *TrackingRate) SubpassBudget(blockBits, subpassSymbols, symbolsSent int) int {
	sub := max(subpassSymbols, 1)
	n := capacityBurst(t.estDB, t.margin(), 0.25, blockBits, sub, symbolsSent)
	if lim := t.maxRoundSymbols() / sub; n > lim {
		n = max(lim, 1)
	}
	return n
}

// ObserveDecode implements RateObserver: fold the decoded block's implied
// SNR into the estimate.
func (t *TrackingRate) ObserveDecode(blockBits, symbolsSpent int) {
	if blockBits <= 0 || symbolsSpent <= 0 {
		return
	}
	rate := float64(blockBits) / float64(symbolsSpent)
	obs := capacity.ToDB(capacity.SNRForRate(rate / t.margin()))
	lo, hi := t.bounds()
	probe := t.ProbeDB
	if probe == 0 {
		probe = 1
	}
	alpha := t.Alpha
	if alpha == 0 {
		alpha = 0.5
	}
	// A block decoding at (or near) its burst size can only tell us the
	// channel is "at least this good" — the burst may have overshot the
	// true decoding point — so probe upward. A block that needed extra
	// rounds reveals the channel directly; average it in.
	if obs >= t.estDB-0.75 {
		t.estDB += probe
	} else {
		t.estDB += alpha * (obs - t.estDB)
	}
	t.estDB = clampF(t.estDB, lo, hi)
}

// clampF bounds v to [lo, hi], sending NaN to lo.
func clampF(v, lo, hi float64) float64 {
	if v < lo || math.IsNaN(v) {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
