package core

import (
	"bytes"
	"math"
	"math/rand"
	"sort"
	"testing"

	"spinal/internal/channel"
	"spinal/internal/hashfn"
)

// refDecoder is a self-contained reimplementation of the seed repo's
// bubble decoder: array-of-structs symbol storage, interface-dispatched
// hashing, full candidate materialization and sort-based selection. The
// stable sort breaks score ties by encounter order, which is the
// optimized search's origin order, so at D=1 both return the same
// message, ties included; with lookahead the beams are ordered
// differently (by score here, by cost there) and only the path costs
// must agree.
type refDecoder struct {
	p     Params
	nBits int
	rng   hashfn.RNG
	cmask uint32
	table []float64
	// hamming selects the BSC metric: received bits sit in the real
	// part of ys, and each stored bit that differs from w&1 costs 1.
	hamming bool

	ts [][]uint32
	ys [][]complex128
	hs [][]complex128
}

func newRefDecoder(nBits int, p Params) *refDecoder {
	p = p.withDefaults()
	ns := numSpine(nBits, p.K)
	table := make([]float64, 1<<uint(p.C))
	for b := range table {
		table[b] = p.Mapper.Map(uint32(b))
	}
	return &refDecoder{
		p:     p,
		nBits: nBits,
		rng:   hashfn.RNG{H: p.Hash},
		cmask: (1 << uint(p.C)) - 1,
		table: table,
		ts:    make([][]uint32, ns),
		ys:    make([][]complex128, ns),
		hs:    make([][]complex128, ns),
	}
}

func (d *refDecoder) addFaded(ids []SymbolID, y, h []complex128) {
	for i, id := range ids {
		c := id.Chunk
		d.ts[c] = append(d.ts[c], id.RNGIndex)
		d.ys[c] = append(d.ys[c], y[i])
		if h != nil {
			if d.hs[c] == nil && len(d.ts[c]) > 1 {
				d.hs[c] = make([]complex128, len(d.ts[c])-1)
				for j := range d.hs[c] {
					d.hs[c][j] = 1
				}
			}
			d.hs[c] = append(d.hs[c], h[i])
		} else if d.hs[c] != nil {
			d.hs[c] = append(d.hs[c], 1)
		}
	}
}

// addBits stores received BSC bits for a hamming reference decoder.
func (d *refDecoder) addBits(ids []SymbolID, bits []byte) {
	y := make([]complex128, len(bits))
	for i, b := range bits {
		y[i] = complex(float64(b&1), 0)
	}
	d.addFaded(ids, y, nil)
}

func (d *refDecoder) branchCost(chunk int, state uint32) float64 {
	ts := d.ts[chunk]
	ys := d.ys[chunk]
	hs := d.hs[chunk]
	c := uint(d.p.C)
	var sum float64
	for i, t := range ts {
		w := d.rng.Word(state, t)
		if d.hamming {
			if float64(w&1) != real(ys[i]) {
				sum++
			}
			continue
		}
		x := complex(d.table[w&d.cmask], d.table[w>>c&d.cmask])
		if hs != nil {
			x *= hs[i]
		}
		dr := real(ys[i]) - real(x)
		di := imag(ys[i]) - imag(x)
		sum += dr*dr + di*di
	}
	return sum
}

func (d *refDecoder) explore(state uint32, chunk, depth int) float64 {
	kb := chunkBits(d.nBits, d.p.K, chunk)
	best := math.Inf(1)
	for m := uint32(0); m < 1<<uint(kb); m++ {
		cs := d.p.Hash.Sum(state, m, kb)
		c := d.branchCost(chunk, cs)
		if depth > 1 && chunk+1 < numSpine(d.nBits, d.p.K) {
			c += d.explore(cs, chunk+1, depth-1)
		}
		if c < best {
			best = c
		}
	}
	return best
}

func (d *refDecoder) decode() ([]byte, float64) {
	k := d.p.K
	ns := numSpine(d.nBits, k)
	type refNode struct {
		state uint32
		back  int
		cost  float64
	}
	type refCand struct {
		state  uint32
		parent int
		bits   uint32
		cost   float64
		score  float64
	}
	beam := []refNode{{state: d.p.Seed, back: -1}}
	var arena []backRec
	for p := 0; p < ns; p++ {
		dd := d.p.D
		if p+dd > ns {
			dd = ns - p
		}
		kb := chunkBits(d.nBits, k, p)
		var cands []refCand
		for bi, node := range beam {
			for m := uint32(0); m < 1<<uint(kb); m++ {
				cs := d.p.Hash.Sum(node.state, m, kb)
				base := node.cost + d.branchCost(p, cs)
				score := base
				if dd > 1 {
					score += d.explore(cs, p+1, dd-1)
				}
				cands = append(cands, refCand{state: cs, parent: bi, bits: m, cost: base, score: score})
			}
		}
		sort.SliceStable(cands, func(i, j int) bool { return cands[i].score < cands[j].score })
		keep := d.p.B
		if keep > len(cands) {
			keep = len(cands)
		}
		newBeam := make([]refNode, keep)
		for i := 0; i < keep; i++ {
			arena = append(arena, backRec{parent: int32(beam[cands[i].parent].back), bits: uint16(cands[i].bits)})
			newBeam[i] = refNode{state: cands[i].state, back: len(arena) - 1, cost: cands[i].cost}
		}
		beam = newBeam
	}
	best := 0
	for i := 1; i < len(beam); i++ {
		if beam[i].cost < beam[best].cost {
			best = i
		}
	}
	msg := make([]byte, (d.nBits+7)/8)
	idx := int32(beam[best].back)
	for j := ns - 1; j >= 0; j-- {
		setChunk(msg, d.nBits, k, j, uint32(arena[idx].bits))
		idx = arena[idx].parent
	}
	return msg, beam[best].cost
}

// pathCost recomputes the total branch cost of a complete message — an
// independent check that a decoder's reported cost is consistent with
// the message it returned.
func (d *refDecoder) pathCost(msg []byte) float64 {
	p := d.p
	ns := numSpine(d.nBits, p.K)
	s := p.Seed
	var sum float64
	for j := 0; j < ns; j++ {
		s = p.Hash.Sum(s, chunkAt(msg, d.nBits, p.K, j), chunkBits(d.nBits, p.K, j))
		sum += d.branchCost(j, s)
	}
	return sum
}

func relClose(a, b float64) bool {
	diff := math.Abs(a - b)
	if diff == 0 {
		return true
	}
	scale := math.Max(math.Abs(a), math.Abs(b))
	return diff <= 1e-9*scale+1e-12
}

// checkAgainstRef holds a decode to the reference decoder: equal path
// cost, a reported cost consistent with the returned message, and at
// D=1 the reference's exact message.
func checkAgainstRef(t *testing.T, trial int, p Params, ref *refDecoder, gotMsg []byte, gotCost float64) {
	t.Helper()
	wantMsg, wantCost := ref.decode()
	if !relClose(wantCost, gotCost) {
		t.Fatalf("trial %d (%+v): ref cost %g, Decode cost %g", trial, p, wantCost, gotCost)
	}
	if !relClose(gotCost, ref.pathCost(gotMsg)) {
		t.Fatalf("trial %d: Decode cost %g inconsistent with its message (path cost %g)",
			trial, gotCost, ref.pathCost(gotMsg))
	}
	if !relClose(wantCost, ref.pathCost(wantMsg)) {
		t.Fatalf("trial %d: reference decoder inconsistent with itself", trial)
	}
	if p.D == 1 && !bytes.Equal(wantMsg, gotMsg) {
		t.Fatalf("trial %d (%+v): D=1 message differs from the reference", trial, p)
	}
	// With lookahead, different messages must still be exact-cost ties.
	if !bytes.Equal(wantMsg, gotMsg) && !relClose(ref.pathCost(wantMsg), ref.pathCost(gotMsg)) {
		t.Fatalf("trial %d: different messages with different costs", trial)
	}
}

// equivHashes are the spine hashes the equivalence trials cycle
// through, three trials at a time, so each hash meets both faded and
// unfaded trials without disturbing the trials' random draws.
var equivHashes = []hashfn.Hash{hashfn.OneAtATime{}, hashfn.Lookup3{}, hashfn.Salsa20{}}

// TestDecodeEquivalence: across random parameter draws (k, B, D, ways,
// fading on/off, noise level) and the three hashes, the optimized decoder and the seed-style
// reference decoder must return messages of identical cost — identical
// messages at D=1 — and the reported cost must equal the recomputed
// path cost of the returned message. At D=1 both also decode after the
// first subpass, where punctured chunks make every sibling an exact cost
// tie, so the tie-breaking itself is compared. (With lookahead the two
// break ties differently, which on tie-heavy early decodes can
// legitimately keep different beams.)
func TestDecodeEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 30; trial++ {
		p := Params{
			K:    1 + rng.Intn(4),
			B:    4 << rng.Intn(4),
			D:    1 + rng.Intn(3),
			C:    6,
			Tail: 1 + rng.Intn(3),
			Ways: []int{1, 2, 4, 8}[rng.Intn(4)],
			Seed: rng.Uint32(),
			// This suite pins the float64 reference arithmetic at 1e-9;
			// quant_equivalence_test.go pins the quantized kernel against
			// it at the quantization tolerance.
			Kernel: KernelFloat,
			Hash:   equivHashes[(trial/3)%3],
		}
		nBits := 16 + rng.Intn(80)
		msg := randomMessage(rng, nBits)
		enc := NewEncoder(msg, nBits, p)
		dec := NewDecoder(nBits, p)
		ref := newRefDecoder(nBits, p)
		sched := enc.NewSchedule()

		snr := 8 + rng.Float64()*12
		ch := channel.NewAWGN(snr, int64(1000+trial))
		var ray *channel.Rayleigh
		if trial%3 == 0 {
			ray = channel.NewRayleigh(snr, 1+rng.Intn(20), int64(2000+trial))
		}
		for sub := 0; sub < 2*p.Ways; sub++ {
			ids := sched.NextSubpass()
			x := enc.Symbols(ids)
			if ray != nil {
				y, h := ray.Transmit(x)
				dec.AddFaded(ids, y, h)
				ref.addFaded(ids, y, h)
			} else {
				y := ch.Transmit(x)
				dec.Add(ids, y)
				ref.addFaded(ids, y, nil)
			}
			if sub == 2*p.Ways-1 || sub == 0 && p.D == 1 {
				gotMsg, gotCost := dec.Decode()
				checkAgainstRef(t, trial, p, ref, gotMsg, gotCost)
			}
		}
	}
}

// TestBSCDecodeEquivalence mirrors the equivalence check for the Hamming
// metric decoder against the reference decoder's Hamming mode, over the
// same three hashes. At D=1 it
// decodes after every pass: integer costs tie often, most of all early
// on.
func TestBSCDecodeEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(78))
	for trial := 0; trial < 10; trial++ {
		p := Params{
			K:    1 + rng.Intn(4),
			B:    4 << rng.Intn(4),
			D:    1 + rng.Intn(2),
			C:    1,
			Tail: 2,
			Ways: []int{1, 2, 4, 8}[rng.Intn(4)],
			Hash: equivHashes[(trial/3)%3],
		}
		nBits := 16 + rng.Intn(48)
		msg := randomMessage(rng, nBits)
		enc := NewEncoder(msg, nBits, p)
		dec := NewBSCDecoder(nBits, p)
		ref := newRefDecoder(nBits, p)
		ref.hamming = true
		sched := enc.NewSchedule()
		ch := channel.NewBSC(0.03, int64(3000+trial))
		for sub := 0; sub < 6*p.Ways; sub++ {
			ids := sched.NextSubpass()
			bits := ch.Transmit(enc.Bits(ids))
			dec.Add(ids, bits)
			ref.addBits(ids, bits)
			if sub == 6*p.Ways-1 || (sub+1)%p.Ways == 0 && p.D == 1 {
				gotMsg, gotCost := dec.Decode()
				checkAgainstRef(t, trial, p, ref, gotMsg, gotCost)
			}
		}
	}
}
