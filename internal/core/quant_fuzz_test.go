package core

import (
	"encoding/binary"
	"math"
	"testing"
)

// FuzzQuantizedDecode drives the fixed-point kernel with adversarial
// received planes — NaN, ±Inf, huge magnitudes, denormals, anything a
// corrupted radio front end could hand the decoder — and holds it to the
// saturation contract: never panic, never overflow (the reported cost is
// finite and non-negative no matter the input), and on inputs inside
// the quantizer's representable range report a cost within quantization
// tolerance of the float64 path cost of the message it returns. The
// float path runs on every input too and must return a full-length
// message without panicking, however non-finite its costs.
//
// The two kernels' messages are not compared: two B-limited beam
// searches whose costs differ by quantization error can keep different
// beams near the B-th boundary, and from there their results can differ
// by any amount (the checked-in beam-boundary-near-zero-planes input is
// such a case). TestQuantFloatExhaustiveML pins kernel agreement where
// it does hold, on messages small enough that both searches are
// exhaustive.
// raw is consumed 8 bytes at a time as IEEE-754 bit patterns
// overriding the clean channel outputs, so the interesting encodings
// (0x7ff0... = +Inf, 0x7ff8... = NaN) are reachable by bit flips.
func FuzzQuantizedDecode(f *testing.F) {
	// Clean transmission, no overrides.
	f.Add(uint32(1), byte(3), byte(2), byte(48), []byte{})
	// A NaN and a +Inf plane value on an otherwise clean transmission.
	f.Add(uint32(2), byte(0), byte(1), byte(16),
		[]byte{0, 0, 0, 0, 0, 0, 0xf8, 0x7f, 0, 0, 0, 0, 0, 0, 0xf0, 0x7f})
	// Huge finite magnitudes (~1e308) that overflow squared distances.
	f.Add(uint32(3), byte(2), byte(0), byte(32),
		[]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xef, 0x7f, 1, 0, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, pseed uint32, kb, bb, nb byte, raw []byte) {
		k := 1 + int(kb%4)
		B := 4 << (bb % 4)
		nBits := 16 + int(nb)%112
		pQ := Params{K: k, B: B, D: 1, C: 6, Tail: 2, Ways: 8, Seed: pseed, Kernel: KernelQuantized}
		pF := pQ
		pF.Kernel = KernelFloat

		msg := make([]byte, (nBits+7)/8)
		for i := range msg {
			msg[i] = byte(pseed>>uint(8*(i%4))) ^ byte(i*29)
		}
		if nBits%8 != 0 {
			msg[len(msg)-1] &= (1 << uint(nBits%8)) - 1
		}

		enc := NewEncoder(msg, nBits, pQ)
		decQ := NewDecoder(nBits, pQ)
		decF := NewDecoder(nBits, pF)
		sched := enc.NewSchedule()

		// inContract tracks whether every overridden plane value stays
		// within the quantizer's representable range: non-finite values
		// and magnitudes beyond quantAbsYLimit saturate by design (they
		// get no say in the quantization scale), so the tolerance
		// contract only applies when none were injected.
		inContract := true
		cursor := 0
		next := func(clean float64) float64 {
			if cursor+8 > len(raw) {
				return clean
			}
			v := math.Float64frombits(binary.LittleEndian.Uint64(raw[cursor:]))
			cursor += 8
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > quantAbsYLimit {
				inContract = false
			}
			return v
		}
		for sub := 0; sub < pQ.Ways; sub++ {
			ids := sched.NextSubpass()
			x := enc.Symbols(ids)
			y := make([]complex128, len(x))
			for i := range x {
				y[i] = complex(next(real(x[i])), next(imag(x[i])))
			}
			decQ.Add(ids, y)
			decF.Add(ids, y)
		}

		msgQ, costQ := decQ.Decode() // must not panic on any input
		if len(msgQ) != len(msg) {
			t.Fatalf("quantized decode returned %d bytes for a %d-bit message", len(msgQ), nBits)
		}
		if math.IsNaN(costQ) || math.IsInf(costQ, 0) || costQ < 0 {
			t.Fatalf("quantized cost %g is not a finite non-negative value — saturation failed", costQ)
		}
		if decQ.KernelUsed() != KernelQuantized {
			t.Fatalf("fuzz input unexpectedly fell back to kernel %d", decQ.KernelUsed())
		}

		msgF, _ := decF.Decode() // must not panic on any input either
		if len(msgF) != len(msg) {
			t.Fatalf("float decode returned %d bytes for a %d-bit message", len(msgF), nBits)
		}

		if !inContract {
			return
		}
		// In-range inputs: the quantized cost is its message's float
		// path cost up to quantization error.
		ref := newRefDecoder(nBits, pF)
		s2 := enc.NewSchedule()
		cursor = 0
		for sub := 0; sub < pF.Ways; sub++ {
			ids := s2.NextSubpass()
			x := enc.Symbols(ids)
			y := make([]complex128, len(x))
			for i := range x {
				y[i] = complex(next(real(x[i])), next(imag(x[i])))
			}
			ref.addFaded(ids, y, nil)
		}
		tol := decQ.QuantTolerance()
		if diff := math.Abs(costQ - ref.pathCost(msgQ)); diff > tol {
			t.Fatalf("quantized cost off by %g from its message's float path cost (tol %g)", diff, tol)
		}
	})
}

// TestFloatDecodeNonFinitePlanes: the float search keeps min(B,
// candidates) at every step whatever the costs, so received planes that
// drive every branch cost to NaN, +Inf or an overflowed square still
// decode to a full-length message, with and without lookahead.
func TestFloatDecodeNonFinitePlanes(t *testing.T) {
	for _, plane := range []float64{math.NaN(), math.Inf(1), 1e308} {
		for _, depth := range []int{1, 2} {
			p := Params{K: 3, B: 8, D: depth, C: 6, Tail: 2, Ways: 2, Kernel: KernelFloat}
			nBits := 40
			enc := NewEncoder(make([]byte, nBits/8), nBits, p)
			dec := NewDecoder(nBits, p)
			sched := enc.NewSchedule()
			for sub := 0; sub < 2*p.Ways; sub++ {
				ids := sched.NextSubpass()
				y := make([]complex128, len(ids))
				for i := range y {
					y[i] = complex(plane, plane)
				}
				dec.Add(ids, y)
			}
			if msg, cost := dec.Decode(); len(msg) != nBits/8 {
				t.Fatalf("plane %g, D=%d: %d-byte message (cost %g), want %d", plane, depth, len(msg), cost, nBits/8)
			}
		}
	}
}
