package code

import (
	"fmt"

	"spinal/internal/ldpc"
	"spinal/internal/memo"
)

// ldpcSeed fixes the QC construction both ends share.
const ldpcSeed = 0x1d9c

// ldpcRungSpec is one (rate, modulation) operating point of the shim's
// ladder.
type ldpcRungSpec struct {
	rate   string
	points int
}

// ldpcLadder is the adaptive shim's rung ladder in descending spectral
// efficiency — the §8 envelope's (rate × modulation) grid, walked top
// down so a transmission degrades toward robustness exactly like a
// rateless code's symbol stream.
var ldpcLadder = []ldpcRungSpec{
	{ldpc.Rate56, 256}, // 6.67 b/sym
	{ldpc.Rate34, 256}, // 6.00
	{ldpc.Rate23, 256}, // 5.33
	{ldpc.Rate56, 64},  // 5.00
	{ldpc.Rate34, 64},  // 4.50
	{ldpc.Rate23, 64},  // 4.00
	{ldpc.Rate12, 64},  // 3.00
	{ldpc.Rate23, 16},  // 2.67
	{ldpc.Rate12, 16},  // 2.00
	{ldpc.Rate12, 4},   // 1.00
}

// ldpcInfoCols maps a rate to its QC base-matrix information columns
// (kb = nb − mb with nb = 24), which set Z for a wanted block size.
var ldpcInfoCols = map[string]int{
	ldpc.Rate12: 12,
	ldpc.Rate23: 16,
	ldpc.Rate34: 18,
	ldpc.Rate56: 20,
}

// ldpcCode emulates ratelessness over the fixed-rate 802.11n-style QC
// LDPC family: the stream walks a ladder of (rate, modulation) rungs in
// descending efficiency, the decoder attempts the most robust fully
// covered rung, and cycles chase-combine LLRs codeword-position-wise.
// As the paper's §8 envelope argument goes, a genie that always picks
// the right rung upper-bounds any fixed-rate scheme; the shim realizes
// the ladder honestly (exploration symbols are paid for) and uses the
// RateAdapter feedback hook to start later blocks near the rung the
// channel actually supports.
type ldpcCode struct {
	name  string
	specs []ldpcRungSpec

	// Constructions are deterministic and read-only once built.
	codes   *memo.Memo[ldpcQC, *ldpc.Code]
	ladders *memo.Memo[int, []ldpcRung] // keyed by nBits

	// effEWMA tracks achieved bits/symbol via ObserveDecode; read on the
	// engine thread only (NewSchedule), written there too.
	effEWMA float64
}

// ldpcQC names one QC construction: a code rate and its lifting size Z.
type ldpcQC struct {
	rate string
	z    int
}

// ldpcRung is one constructed rung of a block size's ladder.
type ldpcRung struct {
	code    *ldpc.Code
	m       mapper
	eff     float64
	off     int // first stream position of the rung within a cycle
	symbols int // stream positions the rung occupies
}

// LDPC builds the adaptive rate-switching LDPC shim ("" selects the full
// rate × modulation ladder).
func LDPC(rate string) Code {
	if rate == "" {
		return newLDPC("ldpc", ldpcLadder)
	}
	c, err := LDPCPinned(rate)
	if err != nil {
		panic(err)
	}
	return c
}

// LDPCPinned builds the shim pinned to one code rate, walking only that
// rate's modulation ladder (256 → 4 QAM).
func LDPCPinned(rate string) (Code, error) {
	if _, ok := ldpcInfoCols[rate]; !ok {
		return nil, fmt.Errorf("unknown LDPC rate %q (want 1/2, 2/3, 3/4 or 5/6)", rate)
	}
	var specs []ldpcRungSpec
	for _, pts := range []int{256, 64, 16, 4} {
		specs = append(specs, ldpcRungSpec{rate, pts})
	}
	return newLDPC("ldpc:"+rate, specs), nil
}

func newLDPC(name string, specs []ldpcRungSpec) *ldpcCode {
	l := &ldpcCode{name: name, specs: specs, codes: memo.New(func(k ldpcQC) *ldpc.Code {
		return ldpc.NewQC(k.rate, k.z, ldpcSeed)
	})}
	l.ladders = memo.New(l.ladder)
	return l
}

func (l *ldpcCode) Name() string { return l.name }

func (l *ldpcCode) Chunks(int) int { return 1 }

// ladder builds the rung ladder for nBits-bit blocks (l.ladders caches
// it): per rung, the smallest Z whose information length covers the
// block.
func (l *ldpcCode) ladder(nBits int) []ldpcRung {
	var lad []ldpcRung
	off := 0
	for _, spec := range l.specs {
		kb := ldpcInfoCols[spec.rate]
		z := (nBits + kb - 1) / kb
		code := l.codes.Get(ldpcQC{spec.rate, z})
		m := newMapper(spec.points)
		syms := (code.N() + m.bitsPerSymbol() - 1) / m.bitsPerSymbol()
		lad = append(lad, ldpcRung{
			code:    code,
			m:       m,
			eff:     code.RateValue() * float64(m.bitsPerSymbol()),
			off:     off,
			symbols: syms,
		})
		off += syms
	}
	return lad
}

// cycleSymbols reports one full ladder walk's stream length.
func cycleSymbols(lad []ldpcRung) int {
	last := lad[len(lad)-1]
	return last.off + last.symbols
}

// startRung picks where a fresh block's schedule enters the ladder: the
// most efficient rung the learned throughput could plausibly support
// (one rung of headroom, so a slightly improved channel is retried), or
// the top with no history.
func (l *ldpcCode) startRung(lad []ldpcRung) int {
	if l.effEWMA <= 0 {
		return 0
	}
	for i, r := range lad {
		if r.eff <= 2*l.effEWMA {
			if i > 0 {
				i--
			}
			return i
		}
	}
	return len(lad) - 1
}

// ObserveDecode implements RateAdapter: fold a decoded block's achieved
// efficiency into the rung-selection estimate.
func (l *ldpcCode) ObserveDecode(blockBits, symbolsSent int) {
	if symbolsSent <= 0 {
		return
	}
	eff := float64(blockBits) / float64(symbolsSent)
	if l.effEWMA <= 0 {
		l.effEWMA = eff
		return
	}
	l.effEWMA += 0.25 * (eff - l.effEWMA)
}

func (l *ldpcCode) NewSchedule(nBits int) Schedule {
	lad := l.ladders.Get(nBits)
	cycle := cycleSymbols(lad)
	start := lad[l.startRung(lad)].off
	// One pass is one ladder cycle; one subpass per rung keeps policy
	// granularity near rung boundaries.
	return newStreamSchedule(cycle, len(lad), uint32(start))
}

// rungAt locates a stream position's rung and in-rung offset.
func rungAt(lad []ldpcRung, cyclePos int) (rung, off int) {
	for i := range lad {
		if cyclePos < lad[i].off+lad[i].symbols {
			return i, cyclePos - lad[i].off
		}
	}
	return len(lad) - 1, cyclePos - lad[len(lad)-1].off
}

// ldpcEncoder serves symbols from the per-rung codeword streams.
type ldpcEncoder struct {
	lad   []ldpcRung
	cycle int
	cws   [][]byte // per-rung codeword bits (bit per byte)
}

func (l *ldpcCode) NewEncoder(bits []byte, nBits int) Encoder {
	lad := l.ladders.Get(nBits)
	e := &ldpcEncoder{lad: lad, cycle: cycleSymbols(lad), cws: make([][]byte, len(lad))}
	info := unpackBits(bits, nBits)
	for i, r := range lad {
		padded := make([]byte, r.code.K())
		copy(padded, info)
		e.cws[i] = r.code.Encode(padded)
	}
	return e
}

func (e *ldpcEncoder) Symbols(ids []SymbolID) []complex128 {
	out := make([]complex128, 0, len(ids))
	// Batch runs that stay inside one rung (the schedule's common case)
	// into one modulate call.
	for i := 0; i < len(ids); {
		r, off := rungAt(e.lad, streamPos(ids[i])%e.cycle)
		j := i + 1
		for j < len(ids) {
			r2, off2 := rungAt(e.lad, streamPos(ids[j])%e.cycle)
			if r2 != r || off2 != off+(j-i) {
				break
			}
			j++
		}
		pos := make([]int, j-i)
		for k := range pos {
			pos[k] = off + k
		}
		rung := e.lad[r]
		out = append(out, rung.m.modulate(e.cws[r], rung.symbols, pos)...)
		i = j
	}
	return out
}

// ldpcDecoder accumulates observations, chase-combines repeats, and
// runs belief propagation on the most robust fully covered rung.
type ldpcDecoder struct {
	lad   []ldpcRung
	cycle int
	nBits int
	obsStore
}

func (l *ldpcCode) NewDecoder(nBits int) Decoder {
	lad := l.ladders.Get(nBits)
	return &ldpcDecoder{lad: lad, cycle: cycleSymbols(lad), nBits: nBits}
}

func (d *ldpcDecoder) Decode() ([]byte, bool) {
	// Sort observations by rung.
	type rungObs struct {
		pos []int
		ys  []complex128
	}
	obs := make([]rungObs, len(d.lad))
	for i, p := range d.pos {
		r, off := rungAt(d.lad, p%d.cycle)
		obs[r].pos = append(obs[r].pos, off)
		obs[r].ys = append(obs[r].ys, d.ys[i])
	}
	noiseVar := estimateNoiseVar(d.ys)
	// The most robust (last in ladder order) fully covered rung is the
	// stream's current operating point: the freshest symbols landed
	// there, and every earlier rung already had its chance. One BP run
	// per attempt bounds decode cost.
	for r := len(d.lad) - 1; r >= 0; r-- {
		rung := d.lad[r]
		if len(obs[r].ys) < rung.symbols {
			continue
		}
		covered := make([]int, rung.symbols)
		bps := rung.m.bitsPerSymbol()
		llr := make([]float64, rung.symbols*bps)
		rung.m.demapInto(llr, covered, rung.symbols, obs[r].pos, obs[r].ys, noiseVar)
		full := true
		for _, c := range covered {
			if c == 0 {
				full = false
				break
			}
		}
		if !full {
			continue
		}
		bits, conv := rung.code.Decode(llr[:rung.code.N()], 40)
		if !conv {
			return nil, false
		}
		return packBits(bits, d.nBits), true
	}
	return nil, false
}
