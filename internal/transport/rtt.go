// Package transport is the multi-block fetch tier over the spinal link:
// it streams a large payload as a pipeline of link-layer segments, one
// link flow each. Each segment is sent once and kept until it is
// delivered: a rateless receiver never loses a block, it only waits for
// more symbols. The number of segments in flight opens by one per
// delivered segment, up to a ceiling. Round-trip time is estimated from
// ack telemetry into an RFC 6298 SRTT and RTO, which the fetch reports.
// Time is measured in engine rounds — the link simulation's only clock —
// so every constant that RFC-land states in seconds appears here in
// rounds.
package transport

// rttEstimator is the RFC 6298 smoothed RTT filter in round units:
// srtt ← (1−α)·srtt + α·sample, rttvar ← (1−β)·rttvar + β·|srtt−sample|,
// rto = srtt + 4·rttvar, clamped to [minRTO, maxRTO].
type rttEstimator struct {
	srtt   float64
	rttvar float64
	rto    int
	minRTO int
	maxRTO int
}

func newRTTEstimator(initialRTO, minRTO, maxRTO int) *rttEstimator {
	return &rttEstimator{rto: initialRTO, minRTO: minRTO, maxRTO: maxRTO}
}

// observe folds one RTT sample (in rounds) into the filter.
func (e *rttEstimator) observe(sample int) {
	s := float64(sample)
	if s < 1 {
		s = 1
	}
	if e.srtt == 0 {
		// First sample: RFC 6298 §2.2.
		e.srtt = s
		e.rttvar = s / 2
	} else {
		d := e.srtt - s
		if d < 0 {
			d = -d
		}
		e.rttvar = 0.75*e.rttvar + 0.25*d
		e.srtt = 0.875*e.srtt + 0.125*s
	}
	rto := int(e.srtt + 4*e.rttvar + 0.5)
	e.rto = e.clamp(rto)
}

func (e *rttEstimator) clamp(rto int) int {
	if rto < e.minRTO {
		return e.minRTO
	}
	if rto > e.maxRTO {
		return e.maxRTO
	}
	return rto
}
