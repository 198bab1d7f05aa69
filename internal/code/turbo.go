package code

import (
	"spinal/internal/memo"
	"spinal/internal/turbo"
)

// turboSeed fixes the interleaver both ends share.
const turboSeed = 0x70b0

// turboSections orders the rate-1/5 turbo coded stream for incremental
// redundancy: systematic bits first, then one parity stream per
// constituent encoder, then the second pair. A stream prefix is a
// sensibly punctured turbo code (rate 1 → 1/2 → 1/3 → 1/4 → 1/5) instead
// of a prefix of the per-bit interleaved layout, which would cover only
// the first info positions. Entry s maps section s to its offset inside
// turbo.Encode's per-bit [sys, p1a, p1b, p2a, p2b] groups.
var turboSections = [5]int{0, 1, 3, 2, 4}

// turboCode adapts a plain (non-layered) rate-1/5 turbo code behind the
// Code interface over QPSK: a fixed-rate ARQ-style baseline — the stream
// cycles the codeword and the receiver chase-combines repeats.
type turboCode struct {
	m     mapper
	codes *memo.Memo[int, *turbo.Code] // keyed by nBits
}

// Turbo builds the plain turbo/QPSK fixed-rate baseline.
func Turbo() Code {
	return &turboCode{m: newMapper(4), codes: memo.New(func(nBits int) *turbo.Code {
		return turbo.NewCode(nBits, true, turboSeed)
	})}
}

func (t *turboCode) Name() string { return "turbo" }

func (t *turboCode) Chunks(int) int { return 1 }

// streamFromCoded rearranges turbo.Encode's per-bit groups into the
// incremental-redundancy section order.
func streamFromCoded(coded []byte, n int) []byte {
	stream := make([]byte, 5*n)
	for s, off := range turboSections {
		for i := 0; i < n; i++ {
			stream[s*n+i] = coded[i*5+off]
		}
	}
	return stream
}

// codedLLRFromStream is the inverse mapping for the decoder: stream-order
// accumulated LLRs back into turbo.Decode's per-bit group layout.
func codedLLRFromStream(llr []float64, n int) []float64 {
	grouped := make([]float64, 5*n)
	for s, off := range turboSections {
		for i := 0; i < n; i++ {
			grouped[i*5+off] = llr[s*n+i]
		}
	}
	return grouped
}

func (t *turboCode) NewSchedule(nBits int) Schedule {
	// One pass is the full rate-1/5 codeword; one subpass per section.
	return newStreamSchedule(5*nBits/2, 5, 0)
}

// turboEncoder serves QPSK symbols from the IR-ordered coded stream.
type turboEncoder struct {
	m      mapper
	stream []byte
	cycle  int
}

func (t *turboCode) NewEncoder(bits []byte, nBits int) Encoder {
	coded := t.codes.Get(nBits).Encode(unpackBits(bits, nBits))
	return &turboEncoder{m: t.m, stream: streamFromCoded(coded, nBits), cycle: 5 * nBits / 2}
}

func (e *turboEncoder) Symbols(ids []SymbolID) []complex128 {
	pos := make([]int, len(ids))
	for i, id := range ids {
		pos[i] = streamPos(id)
	}
	return e.m.modulate(e.stream, e.cycle, pos)
}

// turboDecoder chase-combines stream LLRs across cycles and runs
// iterative log-MAP once enough of the stream is covered.
type turboDecoder struct {
	c     *turbo.Code
	m     mapper
	nBits int
	cycle int
	obsStore
}

func (t *turboCode) NewDecoder(nBits int) Decoder {
	return &turboDecoder{c: t.codes.Get(nBits), m: t.m, nBits: nBits, cycle: 5 * nBits / 2}
}

func (d *turboDecoder) Decode() ([]byte, bool) {
	// Below one coded bit per information bit no attempt can succeed.
	if len(d.ys)*d.m.bitsPerSymbol() < d.nBits {
		return nil, false
	}
	noiseVar := estimateNoiseVar(d.ys)
	covered := make([]int, d.cycle)
	llr := make([]float64, d.cycle*d.m.bitsPerSymbol())
	d.m.demapInto(llr, covered, d.cycle, d.pos, d.ys, noiseVar)
	info := d.c.Decode(codedLLRFromStream(llr[:5*d.nBits], d.nBits), 8)
	// The log-MAP decoder has no convergence flag; the link's CRC
	// arbitrates.
	return packBits(info, d.nBits), true
}
