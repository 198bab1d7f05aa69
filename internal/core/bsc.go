package core

import (
	"math"

	"spinal/internal/hashfn"
)

// BSCDecoder is the bubble decoder for the binary symmetric channel. The
// only change from the AWGN decoder is the branch metric: Hamming distance
// between received bits and the bits the candidate spine state would have
// produced (§4.1). Use C=1 in Params for BSC operation.
//
// Like Decoder, it owns all search scratch (steady-state decodes allocate
// nothing) and binds the hash functions at construction.
type BSCDecoder struct {
	p     Params
	nBits int
	ns    int
	words hashfn.WordsFunc

	ts   [][]uint32
	bits [][]byte

	nsyms int

	bs     beamSearch
	eval   *evaluator
	msgBuf []byte
}

// NewBSCDecoder creates a BSC decoder for nBits-bit messages.
func NewBSCDecoder(nBits int, p Params) *BSCDecoder {
	p = p.withDefaults()
	if nBits < 1 {
		panic("core: message must have at least one bit")
	}
	ns := numSpine(nBits, p.K)
	d := &BSCDecoder{
		p:     p,
		nBits: nBits,
		ns:    ns,
		words: hashfn.CompileWords(p.Hash),
		ts:    make([][]uint32, ns),
		bits:  make([][]byte, ns),
		bs:    newBeamSearch(nBits, p),
	}
	d.eval = d.newEvaluator()
	return d
}

func (d *BSCDecoder) newEvaluator() *evaluator {
	e := d.bs.newEvaluator()
	var (
		ts   []uint32
		bits []byte
	)
	e.bind = func(chunk int) {
		if e.boundChunk == chunk {
			return
		}
		e.boundChunk = chunk
		ts = d.ts[chunk]
		bits = d.bits[chunk]
	}
	words := d.words
	var wbuf []uint32
	e.cost = func(state uint32) float64 {
		n := len(ts)
		if n == 0 {
			return 0
		}
		if cap(wbuf) < n {
			wbuf = make([]uint32, n)
		}
		w := wbuf[:n]
		words(state, ts, w)
		var dist int
		for i, wv := range w {
			dist += int((byte(wv) ^ bits[i]) & 1)
		}
		return float64(dist)
	}
	oaat, isOAAT := hashfn.AsOneAtATime(d.p.Hash)
	if !isOAAT {
		return e
	}
	var pre, wrow []uint32
	e.expand = func(parent uint32, kb int, base, tau float64, childs []uint32, costs []float64) {
		nc := len(childs)
		if cap(pre) < nc {
			pre = make([]uint32, nc)
			wrow = make([]uint32, nc)
		}
		if len(ts) == 0 {
			e.children(parent, kb, childs)
			for j := range costs {
				costs[j] = 0
			}
			return
		}
		pr, wr := pre[:nc], wrow[:nc]
		oaat.ChildrenPrefixes(parent, kb, childs, pr)
		for j := range costs {
			costs[j] = 0
		}
		for i, t := range ts {
			hashfn.FinishWords(pr, t, wr)
			b := bits[i]
			mn := math.Inf(1)
			for j, w := range wr {
				c := costs[j] + float64((byte(w)^b)&1)
				costs[j] = c
				if c < mn {
					mn = c
				}
			}
			if base+mn >= tau {
				return
			}
		}
	}
	return e
}

// NewSchedule returns a fresh transmission schedule matching this decoder.
func (d *BSCDecoder) NewSchedule() *Schedule {
	return NewSchedule(d.ns, d.p.Ways, d.p.Tail)
}

// Add stores received bits for the given SymbolIDs.
func (d *BSCDecoder) Add(ids []SymbolID, bits []byte) {
	if len(ids) != len(bits) {
		panic("core: mismatched bit batch lengths")
	}
	for i, id := range ids {
		c := id.Chunk
		d.ts[c] = append(d.ts[c], id.RNGIndex)
		d.bits[c] = append(d.bits[c], bits[i]&1)
		d.nsyms++
	}
}

// SymbolCount reports the number of bits stored so far.
func (d *BSCDecoder) SymbolCount() int { return d.nsyms }

// Reset discards stored bits for reuse on a new message, keeping all
// storage and search scratch capacity.
func (d *BSCDecoder) Reset() {
	for i := range d.ts {
		d.ts[i] = d.ts[i][:0]
		d.bits[i] = d.bits[i][:0]
	}
	d.nsyms = 0
}

// Decode runs the bubble decoder and returns the most likely message and
// its Hamming path cost. The returned slice is owned by the decoder and
// overwritten by the next Decode call; copy it if it must be retained.
func (d *BSCDecoder) Decode() ([]byte, float64) {
	msg, cost := d.bs.run(d.eval, d.msgBuf)
	d.msgBuf = msg
	return msg, cost
}
