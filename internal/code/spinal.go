package code

import (
	"sync"

	"spinal/internal/core"
)

// Beam ladder: a spinal decode attempt first searches with B/narrowDiv
// and widens to the full B, on the same stored symbols, only when the
// narrow candidate fails the CRC. At the paper's point (528-bit blocks,
// B=256, 10 dB, CapacityRate's first burst) the B/4 rung decodes about
// 91% of blocks in 28% of the full beam's time (EXPERIMENTS.md,
// "Escalating beam").
//
// Every wrong narrow candidate the CRC rejects is one more chance for a
// 16-bit CRC to pass a wrong message, so the ladder only runs where the
// narrow rung is rarely wrong: at B/4 ≥ minNarrowWidth. Narrower rungs
// (B=16's B/4 = 4) are wrong on a third or more of small blocks and
// would add about one expected false accept per daemon-small run.
const (
	narrowDiv      = 4
	minNarrowWidth = 64
)

// narrowWidth reports the ladder's first-rung width for maximum beam
// width b, or 0 when the ladder has no narrow rung at b.
func narrowWidth(b int) int {
	if w := b / narrowDiv; w >= minNarrowWidth {
		return w
	}
	return 0
}

// spinalCode adapts the native spinal codec behind the Code interface.
// It defaults its parameters once and keeps a template encoder, built on
// the first NewEncoder, so every block's encoder is a clone sharing the
// template's compiled hash and constellation table and computes its
// spine once, at construction. Decode-only users build no encoder.
type spinalCode struct {
	p        core.Params // defaulted
	tmplOnce sync.Once
	tmpl     *core.Encoder
}

// Spinal adapts the spinal code with parameters p behind the Code
// interface. It panics on invalid parameters, as core.NewEncoder does.
// p.B is the decoder's maximum beam width: at B ≥ 256 each decode
// attempt tries B/4 first and runs the full B only when the narrow
// candidate fails the link's CRC.
func Spinal(p core.Params) Code {
	return &spinalCode{p: core.WithDefaults(p)}
}

func (s *spinalCode) Name() string { return "spinal" }

func (s *spinalCode) Chunks(nBits int) int { return s.p.NumSpine(nBits) }

func (s *spinalCode) NewSchedule(nBits int) Schedule {
	return core.NewScheduleFor(nBits, s.p)
}

func (s *spinalCode) NewEncoder(bits []byte, nBits int) Encoder {
	s.tmplOnce.Do(func() {
		// A one-bit template: only its parameters and tables are used.
		s.tmpl = core.NewEncoder([]byte{0}, 1, s.p)
	})
	return s.tmpl.Clone(bits, nBits)
}

func (s *spinalCode) NewDecoder(nBits int) Decoder {
	return spinalDecoder{core.NewDecoder(nBits, s.p), narrowWidth(s.p.B)}
}

// spinalDecoder narrows core.Decoder's (bytes, cost) Decode to the
// interface's (bytes, converged) shape. The bubble decoder always emits
// its best path — it has no self-signal beyond the CRC the link checks —
// so converged is always true. narrow is the ladder's first-rung width
// (0: none).
type spinalDecoder struct {
	*core.Decoder
	narrow int
}

func (d spinalDecoder) Decode() ([]byte, bool) {
	bits, _ := d.Decoder.Decode()
	return bits, true
}

// DecodeNarrow runs the ladder's first rung. Only the quantized kernel
// decodes narrow, so a decode bound for the float path (KernelFloat, a
// hash other than one-at-a-time, D > 1) has no narrow rung.
func (d spinalDecoder) DecodeNarrow() ([]byte, bool) {
	if d.narrow == 0 {
		return nil, false
	}
	bits, _, ok := d.DecodeWidth(d.narrow)
	return bits, ok
}
