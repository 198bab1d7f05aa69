package link

import "spinal/internal/core"

// PausePolicy decides how many frames the sender transmits before pausing
// for receiver feedback — the §6 problem of rateless operation over
// half-duplex radios (a receiver cannot ACK while the sender holds the
// medium, so pausing too often wastes turnaround time and pausing too
// rarely wastes symbols past the decodable point).
type PausePolicy interface {
	// BurstFrames returns how many frames to send before the next pause,
	// given the block size in bits, the per-frame symbol count for the
	// block, and how many symbols have been sent so far.
	BurstFrames(blockBits, symbolsPerFrame, symbolsSent int) int
}

// CapacityPolicy sizes the first burst so the receiver is likely to be
// just past its decoding point — blockBits/(margin·C(est)) symbols — and
// then polls with geometrically growing increments. This is the natural
// heuristic the paper's §6 discussion implies (their refined solution is
// follow-on work).
type CapacityPolicy struct {
	// SNREstimateDB is the sender's (possibly stale) channel estimate.
	SNREstimateDB float64
	// Margin derates capacity for the code's gap; 0 means 0.8.
	Margin float64
	// Growth is the post-first-burst increment as a fraction of the
	// initial estimate; 0 means 0.25.
	Growth float64
}

// BurstFrames implements PausePolicy.
func (p CapacityPolicy) BurstFrames(blockBits, symbolsPerFrame, symbolsSent int) int {
	return capacityBurst(p.SNREstimateDB, p.Margin, p.Growth, blockBits, symbolsPerFrame, symbolsSent)
}

// EveryFrame pauses after every frame (the conservative default used by
// Transfer when no policy is given).
type EveryFrame struct{}

// BurstFrames implements PausePolicy.
func (EveryFrame) BurstFrames(int, int, int) int { return 1 }

// TransferWithPolicy is Transfer with an explicit pause policy: the
// sender transmits policy-sized bursts of frames and processes one ACK
// per burst. It returns the received datagram, statistics, and the
// number of pauses (feedback turnarounds) used.
//
// It is a thin veneer over the Engine's pause-paced flow path
// (FlowConfig.Pause) — one flow, an unbounded frame budget, the same
// burst/turnaround semantics the multi-flow scheduler applies — so the
// half-duplex pacing logic exists exactly once.
func TransferWithPolicy(datagram []byte, p core.Params, maxBlockBits int, ch Channel, policy PausePolicy, maxFrames int) ([]byte, Stats, int, error) {
	if maxFrames == 0 {
		maxFrames = 10000
	}
	if policy == nil {
		policy = EveryFrame{}
	}
	e := NewEngine(EngineConfig{
		Params:       p,
		MaxBlockBits: maxBlockBits,
		// A lone flow must never be backpressured out of its own frame.
		FrameSymbols: 1 << 30,
		MaxRounds:    maxFrames,
	})
	defer e.Close()
	e.AddFlow(datagram, FlowConfig{Channel: ch, Pause: policy})
	r := e.Drain(0)[0]
	return r.Datagram, r.Stats, r.Stats.Pauses, r.Err
}

// perFrameSymbols estimates the symbols the next frame will carry (one
// subpass per unacknowledged block).
func perFrameSymbols(s *Sender) int {
	n := 0
	for i := range s.blocks {
		if !s.acked[i] {
			n += s.scheds[i].SymbolsPerPass() / s.scheds[i].Subpasses()
		}
	}
	return n
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
