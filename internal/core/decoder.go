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
	words hashfn.WordsFunc
	cmask uint32
	table []float64 // constellation lookup, indexed by c-bit value

	// Received data per chunk, parallel planes.
	ts  [][]uint32  // RNG indices
	ysI [][]float64 // received symbol I plane
	ysQ [][]float64 // received symbol Q plane
	hsI [][]float64 // fading coefficient I plane (valid when faded[c])
	hsQ [][]float64 // fading coefficient Q plane
	// faded marks chunks whose hs planes are active; an unmarked chunk is
	// treated as h=1 throughout (plain AWGN).
	faded []bool

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
		words: hashfn.CompileWords(p.Hash),
		cmask: (1 << uint(p.C)) - 1,
		table: table,
		ts:    make([][]uint32, ns),
		ysI:   make([][]float64, ns),
		ysQ:   make([][]float64, ns),
		hsI:   make([][]float64, ns),
		hsQ:   make([][]float64, ns),
		faded: make([]bool, ns),
		bs:    newBeamSearch(nBits, p),
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
	d.eval = d.newEvaluator()
	return d
}

// newEvaluator builds the decoder's branch-cost evaluator.
//
// bind loads one chunk's stored planes into closure variables; cost
// then scores a candidate state with no per-candidate slice chasing: one
// batched, devirtualized WordsFunc call fills a cache-resident word
// buffer (for OneAtATime the per-state prefix is mixed once and each
// index costs four mixed bytes plus the avalanche), and the ℓ2 loop runs
// over dense I/Q planes.
func (d *Decoder) newEvaluator() *evaluator {
	e := d.bs.newEvaluator()
	var (
		ts     []uint32
		yI, yQ []float64
		hI, hQ []float64
		faded  bool
	)
	e.bind = func(chunk int) {
		if e.boundChunk == chunk {
			return
		}
		e.boundChunk = chunk
		ts = d.ts[chunk]
		yI, yQ = d.ysI[chunk], d.ysQ[chunk]
		faded = d.faded[chunk]
		if faded {
			hI, hQ = d.hsI[chunk], d.hsQ[chunk]
		}
	}
	table := d.table
	cmask := d.cmask
	cshift := uint(d.p.C)
	words := d.words
	var wbuf []uint32
	e.cost = func(state uint32) float64 {
		n := len(ts)
		if n == 0 {
			// Punctured chunk: cost 0, so all children of a parent score
			// equally, exactly as §5 prescribes.
			return 0
		}
		if cap(wbuf) < n {
			wbuf = make([]uint32, n)
		}
		w := wbuf[:n]
		words(state, ts, w)
		var sum float64
		if !faded {
			for i, wv := range w {
				dr := yI[i] - table[wv&cmask]
				di := yQ[i] - table[wv>>cshift&cmask]
				sum += dr*dr + di*di
			}
		} else {
			for i, wv := range w {
				xI := table[wv&cmask]
				xQ := table[wv>>cshift&cmask]
				dr := yI[i] - (xI*hI[i] - xQ*hQ[i])
				di := yQ[i] - (xI*hQ[i] + xQ*hI[i])
				sum += dr*dr + di*di
			}
		}
		return sum
	}
	oaat, isOAAT := hashfn.AsOneAtATime(d.p.Hash)
	if !isOAAT {
		return e
	}
	// OneAtATime (the paper's production hash): score the whole batch in
	// transposed order. ChildrenPrefixes hoists the per-state half of
	// each RNG word while deriving the children; every stored symbol then
	// costs four mixed bytes plus the avalanche per candidate, in loops
	// whose iterations are independent.
	//
	// For unfaded chunks the squared distances themselves are
	// precomputed: per (symbol, constellation value) they do not depend
	// on the candidate at all, so a 2·2^C-entry table per stored symbol
	// (built once per spine step, L1-resident) turns the inner loop into
	// two loads and an add.
	L := 1 << uint(d.p.C)
	var pre, wrow []uint32
	var dtab []float64
	dtabFor := -1
	bindInner := e.bind
	e.bind = func(chunk int) {
		if e.boundChunk == chunk {
			return
		}
		if e.boundChunk < 0 {
			// A fresh decode: Add may have grown the stored planes.
			// Within one, lookahead's rebinding leaves dtab valid.
			dtabFor = -1
		}
		bindInner(chunk)
	}
	e.expand = func(parent uint32, kb int, base, tau float64, childs []uint32, costs []float64) {
		nc := len(childs)
		n := len(ts)
		if cap(pre) < nc {
			pre = make([]uint32, nc)
			wrow = make([]uint32, 2*nc)
		}
		if n == 0 {
			e.children(parent, kb, childs)
			for j := range costs {
				costs[j] = 0
			}
			return
		}
		if !faded && dtabFor != e.boundChunk {
			dtabFor = e.boundChunk
			if cap(dtab) < n*2*L {
				dtab = make([]float64, n*2*L)
			}
			dtab = dtab[:n*2*L]
			for i := 0; i < n; i++ {
				o := i * 2 * L
				yi, yq := yI[i], yQ[i]
				for v, x := range table {
					dv := yi - x
					dq := yq - x
					dtab[o+v] = dv * dv
					dtab[o+L+v] = dq * dq
				}
			}
		}
		pr, wr, wr2 := pre[:nc], wrow[:nc], wrow[nc:2*nc]
		oaat.ChildrenPrefixes(parent, kb, childs, pr)
		i := 0
		// Symbols go two at a time where possible: one pass over the
		// candidates covers both words, halving the cost-array traffic.
		// The accumulation order matches the one-symbol-at-a-time loop
		// exactly, so costs are bit-identical either way.
		for ; !faded && i+1 < n; i += 2 {
			hashfn.FinishWords(pr, ts[i], wr)
			hashfn.FinishWords(pr, ts[i+1], wr2)
			o0, o1 := i*2*L, (i+1)*2*L
			dI0 := dtab[o0 : o0+L][: cmask+1 : cmask+1]
			dQ0 := dtab[o0+L : o0+2*L][: cmask+1 : cmask+1]
			dI1 := dtab[o1 : o1+L][: cmask+1 : cmask+1]
			dQ1 := dtab[o1+L : o1+2*L][: cmask+1 : cmask+1]
			mn := math.Inf(1)
			if i == 0 {
				for j, w := range wr {
					w1 := wr2[j]
					c := dI0[w&cmask] + dQ0[w>>cshift&cmask] + dI1[w1&cmask] + dQ1[w1>>cshift&cmask]
					costs[j] = c
					if c < mn {
						mn = c
					}
				}
			} else {
				for j, w := range wr {
					w1 := wr2[j]
					c := costs[j] + dI0[w&cmask] + dQ0[w>>cshift&cmask] + dI1[w1&cmask] + dQ1[w1>>cshift&cmask]
					costs[j] = c
					if c < mn {
						mn = c
					}
				}
			}
			if base+mn >= tau {
				// Every candidate in the batch already meets the
				// rejection bound; the caller discards them all, so the
				// remaining symbols need not be hashed.
				return
			}
		}
		for ; i < n; i++ {
			t := ts[i]
			hashfn.FinishWords(pr, t, wr)
			mn := math.Inf(1)
			if !faded {
				dI := dtab[i*2*L : i*2*L+L][: cmask+1 : cmask+1]
				dQ := dtab[i*2*L+L : (i+1)*2*L][: cmask+1 : cmask+1]
				if i == 0 {
					for j, w := range wr {
						c := dI[w&cmask] + dQ[w>>cshift&cmask]
						costs[j] = c
						if c < mn {
							mn = c
						}
					}
				} else {
					for j, w := range wr {
						c := costs[j] + dI[w&cmask] + dQ[w>>cshift&cmask]
						costs[j] = c
						if c < mn {
							mn = c
						}
					}
				}
			} else {
				yi, yq := yI[i], yQ[i]
				hi, hq := hI[i], hQ[i]
				for j, w := range wr {
					xI := table[w&cmask]
					xQ := table[w>>cshift&cmask]
					dr := yi - (xI*hi - xQ*hq)
					di := yq - (xI*hq + xQ*hi)
					var c float64
					if i == 0 {
						c = dr*dr + di*di
					} else {
						c = costs[j] + dr*dr + di*di
					}
					costs[j] = c
					if c < mn {
						mn = c
					}
				}
			}
			if base+mn >= tau {
				// Every candidate in the batch already meets the
				// rejection bound; the caller discards them all, so the
				// remaining symbols need not be hashed.
				return
			}
		}
	}
	return e
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
	if d.quantEligible() {
		if msg, cost, ok := d.decodeQuantized(d.msgBuf); ok {
			d.msgBuf = msg
			d.lastKernel = KernelQuantized
			return msg, cost
		}
	}
	d.lastKernel = KernelFloat
	msg, cost := d.bs.run(d.eval, d.msgBuf)
	d.msgBuf = msg
	return msg, cost
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
