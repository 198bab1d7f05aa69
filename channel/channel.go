// Package channel is the public channel-model tier of the spinal-code
// library: the media a rateless link crosses, from fixed-SNR AWGN to
// bursty Markov interference, SNR random walks, and replayed
// SNR-vs-time traces.
//
// The central abstraction is Model — a stateful per-symbol Transmit plus
// an observable StateDB — which every constructor here returns a concrete
// implementation of, and which the link tier (package spinal/link)
// accepts anywhere a medium is needed:
//
//	m := channel.NewGilbertElliott(18, 2, 0.001, 0.004, seed)
//	s, _ := link.NewSession(spinal.DefaultParams(), link.WithChannel(m))
//
// All channels are deterministic given their seed, so every experiment
// built on them is reproducible. Signal power is normalized to 1 per
// complex symbol throughout the module, so for AWGN the total complex
// noise variance is 1/SNR.
//
// The types are aliases of the engine-internal implementations: the
// public surface and the code under it cannot drift apart, and a Model
// built here is consumed by internal layers without adaptation.
package channel

import (
	"spinal/internal/capacity"
	ichannel "spinal/internal/channel"
)

// Model is the unified channel interface: a per-symbol Transmit that
// advances the channel's internal state, plus an observable StateDB
// reporting the instantaneous effective SNR in dB. StateDB is free of
// side effects and reports the state of the most recently transmitted
// symbol.
type Model = ichannel.Model

// AWGN is a complex additive white Gaussian noise channel at a fixed SNR.
type AWGN = ichannel.AWGN

// GilbertElliott is a two-state Markov AWGN channel: a Good state with
// high SNR and a Bad state with low SNR (bursty interference).
type GilbertElliott = ichannel.GilbertElliott

// Walk is a bounded Markov SNR random walk over AWGN, modeling slow
// mobility at time scales a single rateless message can straddle.
type Walk = ichannel.Walk

// Trace replays a recorded SNR-vs-time series over AWGN; the trajectory
// is a pure function of symbol position, so it is identical across seeds.
type Trace = ichannel.Trace

// TraceSegment is one piece of an SNR trace: SNRdB held for Symbols
// channel symbols.
type TraceSegment = ichannel.TraceSegment

// Rayleigh is the §8.3 Rayleigh block-fading channel.
type Rayleigh = ichannel.Rayleigh

// Multipath is a static frequency-selective channel (unit-energy tap
// convolution plus AWGN).
type Multipath = ichannel.Multipath

// BSC is a binary symmetric channel with a fixed crossover probability.
type BSC = ichannel.BSC

// Erasure drops symbols independently with a fixed probability.
type Erasure = ichannel.Erasure

// NewAWGN creates an AWGN channel with the given SNR in dB and seed.
func NewAWGN(snrDB float64, seed int64) *AWGN { return ichannel.NewAWGN(snrDB, seed) }

// NewGilbertElliott creates a two-state Markov channel with the two
// states' SNRs and per-symbol transition probabilities pGB and pBG.
func NewGilbertElliott(goodSNRdB, badSNRdB, pGB, pBG float64, seed int64) *GilbertElliott {
	return ichannel.NewGilbertElliott(goodSNRdB, badSNRdB, pGB, pBG, seed)
}

// NewWalk creates a random-walk channel starting at startDB, stepping by
// ±stepDB every interval symbols, bounded to [minDB, maxDB].
func NewWalk(startDB, minDB, maxDB, stepDB float64, interval int, seed int64) *Walk {
	return ichannel.NewWalk(startDB, minDB, maxDB, stepDB, interval, seed)
}

// NewTrace creates a trace-driven channel from segments (copied) and a
// noise seed.
func NewTrace(segs []TraceSegment, seed int64) *Trace { return ichannel.NewTrace(segs, seed) }

// NewTraceFromFile loads an SNR trace file (see ParseTrace for the
// format) and builds a trace-driven channel.
func NewTraceFromFile(path string, seed int64) (*Trace, error) {
	return ichannel.NewTraceFromFile(path, seed)
}

// LoadTrace reads an SNR trace file: one "<symbols> <snr_dB>" pair per
// line, blank lines and #-comments ignored. SNRs must lie within
// ±100 dB and the symbol counts must sum to at most math.MaxInt.
func LoadTrace(path string) ([]TraceSegment, error) { return ichannel.LoadTrace(path) }

// NewRayleigh creates a Rayleigh fading channel with average SNR snrDB
// and coherence time tau in symbols.
func NewRayleigh(snrDB float64, tau int, seed int64) *Rayleigh {
	return ichannel.NewRayleigh(snrDB, tau, seed)
}

// NewMultipath creates a multipath channel from taps (copied, normalized
// to unit energy) at snrDB.
func NewMultipath(taps []complex128, snrDB float64, seed int64) *Multipath {
	return ichannel.NewMultipath(taps, snrDB, seed)
}

// NewBSC creates a binary symmetric channel with crossover probability p.
func NewBSC(p float64, seed int64) *BSC { return ichannel.NewBSC(p, seed) }

// NewErasure creates an erasure channel with loss probability p.
func NewErasure(p float64, seed int64) *Erasure { return ichannel.NewErasure(p, seed) }

// CapacityAWGNdB returns the Shannon capacity of the complex AWGN
// channel, in bits per symbol, at the given SNR in dB — the yardstick
// every rate in this module is measured against.
func CapacityAWGNdB(snrDB float64) float64 { return capacity.AWGNdB(snrDB) }

// FractionOfCapacity reports rate (bits/symbol) as a fraction of the
// AWGN capacity at snrDB.
func FractionOfCapacity(rate, snrDB float64) float64 {
	return capacity.FractionOfCapacity(rate, snrDB)
}
