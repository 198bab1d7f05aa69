package core

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

	received

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
		received: received{
			ts:    make([][]uint32, ns),
			faded: make([]bool, ns), // read by the evaluator; the BSC has no fading
			bits:  make([][]byte, ns),
		},
		bs: newBeamSearch(nBits, p),
	}
	d.eval = newEvaluator(&d.received, nBits, p, nil)
	return d
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
