package code

import (
	"spinal/internal/memo"
	"spinal/internal/raptor"
)

// raptorQAMPoints is the dense constellation the §8 Raptor baseline
// rides (the paper evaluates Raptor over QAM-256 with exact soft
// demapping, crediting the demapper for its strong showing).
const raptorQAMPoints = 256

// raptorSeed fixes the LT/precode construction both ends share.
const raptorSeed = 0x5ea7_ab1e

// raptorCode adapts the Raptor baseline (LT output symbols over an LDPC
// precode, joint soft BP) behind the Code interface: the LT output bit
// stream is truly rateless, so stream symbol i simply carries output
// bits [i·bps, (i+1)·bps) — no cycling needed. Construction is
// deterministic, so sender and receiver agree; each block size's code is
// built once and shared read-only by every encoder and decoder.
type raptorCode struct {
	m     mapper
	codes *memo.Memo[int, *raptor.Code] // keyed by nBits
}

// Raptor builds the Raptor/QAM-256 rateless baseline.
func Raptor() Code {
	return &raptorCode{m: newMapper(raptorQAMPoints), codes: memo.New(func(nBits int) *raptor.Code {
		return raptor.New(kEff(nBits), raptorSeed)
	})}
}

func (r *raptorCode) Name() string { return "raptor" }

func (r *raptorCode) Chunks(int) int { return 1 }

// kEff pads short blocks up to the Raptor construction's minimum.
func kEff(nBits int) int {
	if nBits < 32 {
		return 32
	}
	return nBits
}

func (r *raptorCode) NewSchedule(nBits int) Schedule {
	// One pass ≈ one information block's worth of symbols, quartered
	// into subpasses so rate policies can trickle.
	perPass := (kEff(nBits) + r.m.bitsPerSymbol() - 1) / r.m.bitsPerSymbol()
	return newStreamSchedule(perPass, 4, 0)
}

// raptorEncoder regenerates LT output symbols for arbitrary ID sets.
type raptorEncoder struct {
	c   *raptor.Code
	m   mapper
	msg []byte // bit-per-byte, kEff long (zero padded)
}

func (r *raptorCode) NewEncoder(bits []byte, nBits int) Encoder {
	msg := make([]byte, kEff(nBits))
	copy(msg, unpackBits(bits, nBits))
	return &raptorEncoder{c: r.codes.Get(nBits), m: r.m, msg: msg}
}

func (e *raptorEncoder) Symbols(ids []SymbolID) []complex128 {
	bps := e.m.bitsPerSymbol()
	out := make([]complex128, 0, len(ids))
	// OutputBits recomputes the precode per call; batch maximal
	// consecutive runs (the schedule emits them) into one call each.
	for i := 0; i < len(ids); {
		j := i + 1
		for j < len(ids) && streamPos(ids[j]) == streamPos(ids[j-1])+1 {
			j++
		}
		bits := e.c.OutputBits(e.msg, streamPos(ids[i])*bps, (j-i)*bps)
		out = append(out, e.m.qam.Modulate(bits)...)
		i = j
	}
	return out
}

// raptorDecoder accumulates observations and reruns joint BP over the
// full observation set at each attempt.
type raptorDecoder struct {
	c     *raptor.Code
	m     mapper
	nBits int
	obsStore
}

func (r *raptorCode) NewDecoder(nBits int) Decoder {
	return &raptorDecoder{c: r.codes.Get(nBits), m: r.m, nBits: nBits}
}

func (d *raptorDecoder) Decode() ([]byte, bool) {
	bps := d.m.bitsPerSymbol()
	// Below the information-theoretic minimum no attempt can succeed;
	// skip the BP cost.
	if len(d.ys)*bps < d.c.K() {
		return nil, false
	}
	noiseVar := estimateNoiseVar(d.ys)
	llr := d.m.qam.DemapSoft(d.ys, noiseVar, nil)
	dec := raptor.NewDecoder(d.c)
	for i, p := range d.pos {
		dec.Add(p*bps, llr[i*bps:(i+1)*bps])
	}
	bits, ok := dec.Decode(40)
	if bits == nil {
		return nil, false
	}
	return packBits(bits, d.nBits), ok
}
