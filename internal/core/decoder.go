package core

import (
	"math"

	"spinal/internal/hashfn"
)

// Decoder is the bubble decoder for the AWGN channel (§4), optionally
// fading-aware (§8.3). It stores every received symbol and rebuilds the
// decoding tree on each Decode call; §7.1 found that caching explored
// nodes between attempts does not help, because new symbols change pruning
// decisions.
//
// The decoder owns all search scratch: after the first few Decode calls
// warm the buffers up, decoding allocates nothing. Received symbols are
// stored as separate I/Q planes (structure of arrays) so the ℓ2 metric's
// inner loop walks dense float64 slices, and the spine hash and symbol
// RNG are bound to concrete batched functions at construction instead of
// being dispatched through the hashfn.Hash interface per symbol.
type Decoder struct {
	p     Params
	nBits int
	ns    int
	cmask uint32
	table []float64 // constellation lookup, indexed by c-bit value

	received

	// anyFaded is true once any chunk carries fading coefficients; the
	// quantized kernel's tables assume h = 1, so fading routes decodes to
	// the float path.
	anyFaded bool

	nsyms int

	// Quantized-kernel state: oaat is the devirtualized hash (valid when
	// quantStatic), maxAbsX the constellation's largest magnitude (for
	// the quantization range), q the fixed-point search scratch, and
	// lastKernel the arithmetic the most recent Decode ran on.
	oaat        hashfn.OneAtATime
	quantStatic bool
	maxAbsX     float64
	q           quantSearch
	lastKernel  Kernel

	bs     beamSearch
	eval   *evaluator
	msgBuf []byte // Decode result buffer
}

// NewDecoder creates a decoder for nBits-bit messages with the given code
// parameters.
func NewDecoder(nBits int, p Params) *Decoder {
	p = p.withDefaults()
	if nBits < 1 {
		panic("core: message must have at least one bit")
	}
	ns := numSpine(nBits, p.K)
	table := make([]float64, 1<<uint(p.C))
	for b := range table {
		table[b] = p.Mapper.Map(uint32(b))
	}
	d := &Decoder{
		p:     p,
		nBits: nBits,
		ns:    ns,
		cmask: (1 << uint(p.C)) - 1,
		table: table,
		received: received{
			ts:    make([][]uint32, ns),
			ysI:   make([][]float64, ns),
			ysQ:   make([][]float64, ns),
			hsI:   make([][]float64, ns),
			hsQ:   make([][]float64, ns),
			faded: make([]bool, ns),
		},
		bs: newBeamSearch(nBits, p),
	}
	for _, x := range table {
		if a := math.Abs(x); a > d.maxAbsX {
			d.maxAbsX = a
		}
	}
	var isOAAT bool
	d.oaat, isOAAT = hashfn.AsOneAtATime(p.Hash)
	d.quantStatic = isOAAT && p.D == 1 && p.B<<uint(p.K) <= quantMaxStates &&
		p.Kernel != KernelFloat && !math.IsInf(d.maxAbsX, 0) && !math.IsNaN(d.maxAbsX)
	d.eval = newEvaluator(&d.received, nBits, p, table)
	return d
}

// NewSchedule returns a fresh transmission schedule matching this decoder.
func (d *Decoder) NewSchedule() *Schedule {
	return NewSchedule(d.ns, d.p.Ways, d.p.Tail)
}

// Add stores received symbols (AWGN: fading coefficient 1).
func (d *Decoder) Add(ids []SymbolID, y []complex128) {
	d.AddFaded(ids, y, nil)
}

// AddFaded stores received symbols along with their known fading
// coefficients (Fig 8-4). h may be nil, in which case the decoder treats
// the channel as unfaded — Fig 8-5's "AWGN decoder on a fading channel".
func (d *Decoder) AddFaded(ids []SymbolID, y []complex128, h []complex128) {
	if len(ids) != len(y) || (h != nil && len(h) != len(y)) {
		panic("core: mismatched symbol batch lengths")
	}
	for i, id := range ids {
		c := id.Chunk
		d.ts[c] = append(d.ts[c], id.RNGIndex)
		d.ysI[c] = append(d.ysI[c], real(y[i]))
		d.ysQ[c] = append(d.ysQ[c], imag(y[i]))
		if h != nil {
			d.anyFaded = true
			if !d.faded[c] {
				// Earlier symbols for this chunk arrived without fading
				// info; backfill with h=1.
				d.faded[c] = true
				d.hsI[c] = d.hsI[c][:0]
				d.hsQ[c] = d.hsQ[c][:0]
				for j := 0; j < len(d.ts[c])-1; j++ {
					d.hsI[c] = append(d.hsI[c], 1)
					d.hsQ[c] = append(d.hsQ[c], 0)
				}
			}
			d.hsI[c] = append(d.hsI[c], real(h[i]))
			d.hsQ[c] = append(d.hsQ[c], imag(h[i]))
		} else if d.faded[c] {
			d.hsI[c] = append(d.hsI[c], 1)
			d.hsQ[c] = append(d.hsQ[c], 0)
		}
		d.nsyms++
	}
}

// SymbolCount reports the number of symbols stored so far.
func (d *Decoder) SymbolCount() int { return d.nsyms }

// Reset discards stored symbols so the decoder can be reused for a new
// message with the same parameters. All storage and search scratch keeps
// its capacity, so a reset decoder decodes without re-warming.
func (d *Decoder) Reset() {
	for i := range d.ts {
		d.ts[i] = d.ts[i][:0]
		d.ysI[i] = d.ysI[i][:0]
		d.ysQ[i] = d.ysQ[i][:0]
		d.hsI[i] = d.hsI[i][:0]
		d.hsQ[i] = d.hsQ[i][:0]
		d.faded[i] = false
	}
	d.anyFaded = false
	d.nsyms = 0
}

// Decode runs the bubble decoder over all stored symbols and returns the
// most likely message and its path cost. The caller checks correctness
// (via CRC at the link layer, §6, or direct comparison in simulations) and
// requests more symbols if the result is wrong.
//
// The returned slice is owned by the decoder and overwritten by the next
// Decode call (and by Reset); copy it if it must be retained.
//
// Arithmetic is selected by Params.Kernel: with KernelAuto or
// KernelQuantized an eligible decode runs on the fixed-point kernel
// (internal/hw) and falls back to the float64 reference path otherwise;
// KernelFloat always uses the reference path. KernelUsed reports the
// choice, QuantTolerance the cost accuracy.
func (d *Decoder) Decode() ([]byte, float64) {
	if msg, cost, ok := d.DecodeWidth(d.p.B); ok {
		return msg, cost
	}
	d.lastKernel = KernelFloat
	msg, cost := d.bs.run(d.eval, d.msgBuf)
	d.msgBuf = msg
	return msg, cost
}

// DecodeWidth is Decode with beam width w (1 ≤ w ≤ Params.B) in place of
// Params.B: a cheaper, less reliable search over the same stored
// symbols, which stay stored for a wider decode after it. Only the
// quantized kernel runs
// at a chosen width: when the decode is not eligible for it (see
// Kernel), DecodeWidth decodes nothing and reports ok = false. At
// w = Params.B it returns exactly what a quantized Decode returns, and
// at any w what a decoder built with B = w would.
func (d *Decoder) DecodeWidth(w int) (msg []byte, cost float64, ok bool) {
	if w < 1 || w > d.p.B {
		panic("core: decode width outside [1, Params.B]")
	}
	if !d.quantEligible() {
		return nil, 0, false
	}
	msg, cost, ok = d.decodeQuantized(d.msgBuf, w, quantBlockCand(w, d.p.K))
	if !ok {
		return nil, 0, false
	}
	d.msgBuf = msg
	d.lastKernel = KernelQuantized
	return msg, cost, true
}

// KernelUsed reports the arithmetic the most recent Decode ran on:
// KernelQuantized or KernelFloat (KernelAuto before the first decode).
func (d *Decoder) KernelUsed() Kernel { return d.lastKernel }

// QuantTolerance bounds the absolute cost error of the most recent
// quantized Decode: the true (float) cost of any returned path differs
// from the reported cost by at most this much, provided no stored
// symbol's distances saturated the fixed-point range (only adversarial
// magnitudes beyond every finite symbol's reach do). Zero when the last
// decode used the float path.
func (d *Decoder) QuantTolerance() float64 {
	if d.lastKernel != KernelQuantized {
		return 0
	}
	return d.q.tol
}
