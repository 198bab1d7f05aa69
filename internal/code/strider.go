package code

import (
	"spinal/internal/memo"
	"spinal/internal/strider"
)

// striderSeed fixes the phase schedule and interleavers both ends share.
const striderSeed = 0x57e1de5

// striderMaxPasses bounds a block's pass budget well above any plausible
// operating point (the paper uses up to 27); the schedule goes quiet
// after it rather than repeating symbol IDs.
const striderMaxPasses = 512

// striderSubpassOrder is Strider+'s §8 puncturing order: subpass s
// carries the pass positions congruent to striderSubpassOrder[s] mod 8,
// spreading a partial pass evenly across the block.
var striderSubpassOrder = [8]int{7, 3, 5, 1, 6, 2, 4, 0}

// striderCode adapts the Strider baseline (layered superposition over a
// rate-1/5 turbo base, SIC decoding) behind the Code interface, in its
// Strider+ variant (8 subpasses per pass). Stream position i is symbol
// i%ns of pass i/ns. Layer count scales with block size so the layered
// rate cap L·LayerBits/(2·ns) does not strangle small blocks. Each block
// size's code is built once (deterministically) and shared read-only.
type striderCode struct {
	codes *memo.Memo[int, *strider.Code] // keyed by nBits
}

// Strider builds the Strider+ layered-superposition baseline.
func Strider() Code {
	return &striderCode{codes: memo.New(func(nBits int) *strider.Code {
		return strider.New(striderConfigFor(nBits))
	})}
}

func (s *striderCode) Name() string { return "strider" }

func (s *striderCode) Chunks(int) int { return 1 }

// striderConfigFor scales the paper's 33-layer design down to a block:
// enough layers that the two-pass rate cap clears the block's needs,
// layer blocks no shorter than the turbo code tolerates.
func striderConfigFor(nBits int) strider.Config {
	layers := nBits / 32
	if layers < 3 {
		layers = 3
	}
	if layers > 33 {
		layers = 33
	}
	layerBits := (nBits + layers - 1) / layers
	if layerBits < 8 {
		layerBits = 8
	}
	return strider.Config{
		Layers:    layers,
		LayerBits: layerBits,
		MaxPasses: striderMaxPasses,
		Subpasses: 8,
		Seed:      striderSeed,
	}
}

// striderSchedule walks passes in Strider+ subpass order. It goes quiet
// (empty subpasses) once the pass budget is spent, so IDs never repeat.
type striderSchedule struct {
	ns   int
	pass int
	sub  int
}

func (s *striderCode) NewSchedule(nBits int) Schedule {
	return &striderSchedule{ns: s.codes.Get(nBits).SymbolsPerPass()}
}

func (s *striderSchedule) SymbolsPerPass() int { return s.ns }
func (s *striderSchedule) Subpasses() int      { return 8 }

func (s *striderSchedule) NextSubpass() []SymbolID {
	if s.pass >= striderMaxPasses {
		return nil
	}
	res := striderSubpassOrder[s.sub]
	var ids []SymbolID
	for i := res; i < s.ns; i += 8 {
		ids = append(ids, SymbolID{Chunk: 0, RNGIndex: uint32(s.pass*s.ns + i)})
	}
	s.sub++
	if s.sub == 8 {
		s.sub, s.pass = 0, s.pass+1
	}
	return ids
}

// striderEncoder serves superposed symbols from the layered Tx, caching
// each pass's full symbol vector on first touch.
type striderEncoder struct {
	c      *strider.Code
	tx     *strider.Tx
	ns     int
	passes map[int][]complex128
}

func (s *striderCode) NewEncoder(bits []byte, nBits int) Encoder {
	c := s.codes.Get(nBits)
	msg := make([]byte, c.MessageBits())
	copy(msg, unpackBits(bits, nBits))
	return &striderEncoder{c: c, tx: c.Encode(msg), ns: c.SymbolsPerPass(),
		passes: make(map[int][]complex128)}
}

func (e *striderEncoder) Symbols(ids []SymbolID) []complex128 {
	out := make([]complex128, len(ids))
	for i, id := range ids {
		pos := streamPos(id)
		p := pos / e.ns
		pass, ok := e.passes[p]
		if !ok {
			pass = e.tx.Pass(p)
			e.passes[p] = pass
		}
		out[i] = pass[pos%e.ns]
	}
	return out
}

// striderDecoder feeds observations straight into a persistent SIC
// decoder (successfully decoded layers stay cancelled across attempts)
// and tracks received power for blind noise estimation.
type striderDecoder struct {
	c     *strider.Code
	ns    int
	nBits int
	dec   *strider.Decoder
	power float64
	count int
}

func (s *striderCode) NewDecoder(nBits int) Decoder {
	c := s.codes.Get(nBits)
	return &striderDecoder{c: c, ns: c.SymbolsPerPass(), nBits: nBits,
		dec: strider.NewDecoder(c)}
}

func (d *striderDecoder) Reset() {
	d.dec = strider.NewDecoder(d.c)
	d.power, d.count = 0, 0
}

func (d *striderDecoder) Add(ids []SymbolID, syms []complex128) {
	// Group the batch into per-pass runs for AddSubpass.
	for i := 0; i < len(ids); {
		p := streamPos(ids[i]) / d.ns
		j := i + 1
		for j < len(ids) && streamPos(ids[j])/d.ns == p {
			j++
		}
		pos := make([]int, j-i)
		for k := i; k < j; k++ {
			pos[k-i] = streamPos(ids[k]) % d.ns
		}
		if p < striderMaxPasses {
			d.dec.AddSubpass(p, pos, syms[i:j], nil)
		}
		i = j
	}
	for _, y := range syms {
		d.power += real(y)*real(y) + imag(y)*imag(y)
		d.count++
	}
}

func (d *striderDecoder) Decode() ([]byte, bool) {
	// The design SINR sits below the turbo threshold, so one pass can
	// never suffice (§8.2); skip the SIC cost until two passes' worth of
	// symbols have arrived.
	if d.dec.SymbolsReceived() < 2*d.ns {
		return nil, false
	}
	noiseVar := d.power/float64(d.count) - 1
	if noiseVar < 1e-3 {
		noiseVar = 1e-3
	}
	msg, ok := d.dec.TryDecode(noiseVar)
	if !ok {
		return nil, false
	}
	return packBits(msg, d.nBits), true
}
