package core

import "spinal/internal/hashfn"

// Encoder produces the rateless symbol stream for one message (§3). It is
// a pure function of (message, Params): any SymbolID may be generated at
// any time and in any order, so lost or punctured symbols are never
// computed (§7.1).
//
// The spine hash is bound to a concrete function at construction and the
// constellation mapping is precomputed into a lookup table, so symbol
// generation makes no interface calls. Reset re-targets an encoder at a
// new message without reallocating.
type Encoder struct {
	p     Params
	nBits int
	sp    []uint32
	sum   hashfn.SumFunc
	cmask uint32
	table []float64 // constellation lookup, indexed by c-bit value
}

// NewEncoder builds an encoder for the first nBits bits of msg. nBits must
// be positive and msg must hold at least ⌈nBits/8⌉ bytes.
func NewEncoder(msg []byte, nBits int, p Params) *Encoder {
	p = p.withDefaults()
	if nBits < 1 {
		panic("core: message must have at least one bit")
	}
	if len(msg)*8 < nBits {
		panic("core: message shorter than nBits")
	}
	table := make([]float64, 1<<uint(p.C))
	for b := range table {
		table[b] = p.Mapper.Map(uint32(b))
	}
	e := &Encoder{
		p:     p,
		nBits: nBits,
		sum:   hashfn.Compile(p.Hash),
		cmask: (1 << uint(p.C)) - 1,
		table: table,
	}
	e.sp = e.appendSpine(e.sp[:0], msg, nBits)
	return e
}

// Reset re-targets the encoder at a new message, recomputing the spine in
// place with no allocation (unless nBits grows). Parameters are unchanged;
// nBits and msg follow the NewEncoder rules.
func (e *Encoder) Reset(msg []byte, nBits int) {
	if nBits < 1 {
		panic("core: message must have at least one bit")
	}
	if len(msg)*8 < nBits {
		panic("core: message shorter than nBits")
	}
	e.nBits = nBits
	e.sp = e.appendSpine(e.sp[:0], msg, nBits)
}

// Clone returns a new encoder for the first nBits bits of msg under e's
// parameters, sharing e's compiled hash and constellation table — the
// cheap way to build one encoder per message from a template. msg and
// nBits follow the NewEncoder rules.
func (e *Encoder) Clone(msg []byte, nBits int) *Encoder {
	c := &Encoder{p: e.p, sum: e.sum, cmask: e.cmask, table: e.table,
		sp: make([]uint32, 0, numSpine(max(nBits, 0), e.p.K))}
	c.Reset(msg, nBits)
	return c
}

// appendSpine computes the spine s_1..s_{numSpine} for msg into dst.
func (e *Encoder) appendSpine(dst []uint32, msg []byte, nBits int) []uint32 {
	ns := numSpine(nBits, e.p.K)
	s := e.p.Seed
	for j := 0; j < ns; j++ {
		s = e.sum(s, chunkAt(msg, nBits, e.p.K, j), chunkBits(nBits, e.p.K, j))
		dst = append(dst, s)
	}
	return dst
}

// NumSpine reports the number of spine values (message chunks).
func (e *Encoder) NumSpine() int { return len(e.sp) }

// Params returns the encoder's (defaulted) parameters.
func (e *Encoder) Params() Params { return e.p }

// NewSchedule returns a fresh transmission schedule matching this encoder.
func (e *Encoder) NewSchedule() *Schedule {
	return NewSchedule(len(e.sp), e.p.Ways, e.p.Tail)
}

// Symbol generates the I/Q symbol for one SymbolID. One RNG word supplies
// both c-bit constellation inputs (I from the low bits, Q from the next c
// bits).
func (e *Encoder) Symbol(id SymbolID) complex128 {
	w := e.sum(e.sp[id.Chunk], id.RNGIndex, 32)
	return complex(e.table[w&e.cmask], e.table[w>>uint(e.p.C)&e.cmask])
}

// AppendSymbols appends the symbols for a batch of SymbolIDs to dst and
// returns the extended slice. Callers that reuse dst across batches (the
// simulation engine's transmit loop, benchmarks) generate symbols without
// allocating.
func (e *Encoder) AppendSymbols(dst []complex128, ids []SymbolID) []complex128 {
	c := uint(e.p.C)
	for _, id := range ids {
		w := e.sum(e.sp[id.Chunk], id.RNGIndex, 32)
		dst = append(dst, complex(e.table[w&e.cmask], e.table[w>>c&e.cmask]))
	}
	return dst
}

// Symbols generates the symbols for a batch of SymbolIDs (one subpass,
// typically) into a fresh slice.
func (e *Encoder) Symbols(ids []SymbolID) []complex128 {
	return e.AppendSymbols(make([]complex128, 0, len(ids)), ids)
}

// Bit generates the coded bit for one SymbolID in BSC mode (§3.3: c = 1
// and the sender transmits the bit directly).
func (e *Encoder) Bit(id SymbolID) byte {
	return byte(e.sum(e.sp[id.Chunk], id.RNGIndex, 32) & 1)
}

// AppendBits appends coded bits for a batch of SymbolIDs to dst and
// returns the extended slice.
func (e *Encoder) AppendBits(dst []byte, ids []SymbolID) []byte {
	for _, id := range ids {
		dst = append(dst, byte(e.sum(e.sp[id.Chunk], id.RNGIndex, 32)&1))
	}
	return dst
}

// Bits generates coded bits for a batch of SymbolIDs into a fresh slice.
func (e *Encoder) Bits(ids []SymbolID) []byte {
	return e.AppendBits(make([]byte, 0, len(ids)), ids)
}
