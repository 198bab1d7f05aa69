package code

import "spinal/internal/core"

// spinalCode adapts the native spinal codec behind the Code interface.
// It defaults its parameters once and keeps a template encoder, so every
// block's encoder is a clone sharing the template's compiled hash and
// constellation table and computes its spine once, at construction.
type spinalCode struct {
	p    core.Params // defaulted
	tmpl *core.Encoder
}

// Spinal adapts the spinal code with parameters p behind the Code
// interface. It panics on invalid parameters, as core.NewEncoder does.
func Spinal(p core.Params) Code {
	// A one-bit template: only its parameters and tables are used.
	tmpl := core.NewEncoder([]byte{0}, 1, p)
	return &spinalCode{p: tmpl.Params(), tmpl: tmpl}
}

func (s *spinalCode) Name() string { return "spinal" }

func (s *spinalCode) Chunks(nBits int) int { return s.p.NumSpine(nBits) }

func (s *spinalCode) NewSchedule(nBits int) Schedule {
	return core.NewScheduleFor(nBits, s.p)
}

func (s *spinalCode) NewEncoder(bits []byte, nBits int) Encoder {
	return s.tmpl.Clone(bits, nBits)
}

func (s *spinalCode) NewDecoder(nBits int) Decoder {
	return spinalDecoder{core.NewDecoder(nBits, s.p)}
}

// spinalDecoder narrows core.Decoder's (bytes, cost) Decode to the
// interface's (bytes, converged) shape. The bubble decoder always emits
// its best path — it has no self-signal beyond the CRC the link checks —
// so converged is always true.
type spinalDecoder struct {
	*core.Decoder
}

func (d spinalDecoder) Decode() ([]byte, bool) {
	bits, _ := d.Decoder.Decode()
	return bits, true
}
