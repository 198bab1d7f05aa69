package core

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"spinal/internal/channel"
	"spinal/internal/hashfn"
)

// This file pins the fixed-point kernel (quant.go + internal/hw) against
// the float64 reference path at the accuracy the quantizer contract
// promises: the dequantized path cost of the returned message is within
// Decoder.QuantTolerance() of its float path cost, and whenever the two
// kernels disagree on the message the quantized pick is a near-tie —
// within twice the tolerance of the float winner, the §4.3 latitude plus
// quantization error. equivalence_test.go pins the float path itself at
// 1e-9 against a seed-style reference.

// quantGridCell decodes one encoded transmission with both kernels fed
// byte-identical symbols and cross-checks them via the float reference
// metric.
func quantGridCell(t *testing.T, rng *rand.Rand, nBits, beam int, snr float64, seed int64) (agree, quantCorrect, floatCorrect bool) {
	t.Helper()
	pF := Params{K: 4, B: beam, D: 1, C: 6, Tail: 2, Ways: 8, Kernel: KernelFloat}
	pQ := pF
	pQ.Kernel = KernelQuantized

	msg := randomMessage(rng, nBits)
	enc := NewEncoder(msg, nBits, pF)
	decF := NewDecoder(nBits, pF)
	decQ := NewDecoder(nBits, pQ)
	ref := newRefDecoder(nBits, pF)
	sched := enc.NewSchedule()
	ch := channel.NewAWGN(snr, seed)
	for sub := 0; sub < 2*pF.Ways; sub++ {
		ids := sched.NextSubpass()
		y := ch.Transmit(enc.Symbols(ids))
		decF.Add(ids, y)
		decQ.Add(ids, y)
		ref.addFaded(ids, y, nil)
	}

	msgF, costF := decF.Decode()
	msgQ, costQ := decQ.Decode()
	if decF.KernelUsed() != KernelFloat {
		t.Fatalf("float decoder ran on kernel %d", decF.KernelUsed())
	}
	if decQ.KernelUsed() != KernelQuantized {
		t.Fatalf("quantized decoder fell back to kernel %d (nBits=%d B=%d snr=%g)",
			decQ.KernelUsed(), nBits, beam, snr)
	}
	tol := decQ.QuantTolerance()
	if tol <= 0 {
		t.Fatal("QuantTolerance must be positive after a quantized decode")
	}

	// The float path must be self-consistent (re-checked cheaply here so
	// grid failures are attributable), and the quantized cost must match
	// the float-arithmetic cost of the message it actually returned to
	// within the documented tolerance.
	if !relClose(costF, ref.pathCost(msgF)) {
		t.Fatalf("float decoder inconsistent with itself: %g vs %g", costF, ref.pathCost(msgF))
	}
	if diff := math.Abs(costQ - ref.pathCost(msgQ)); diff > tol {
		t.Fatalf("quantized cost %g is %g from the float path cost of its message; tolerance %g (nBits=%d B=%d snr=%g)",
			costQ, diff, tol, nBits, beam, snr)
	}

	// Kernel agreement: identical bits, or a near-tie. A float winner
	// beaten by more than quantization error can never lose the quantized
	// selection, so pathCost(msgQ) must be within 2·tol of costF — §4.3
	// tie-breaking widened by the arithmetic contract.
	if !bytes.Equal(msgF, msgQ) {
		if d := ref.pathCost(msgQ) - costF; d > 2*tol {
			t.Fatalf("kernels disagree beyond tolerance: quantized message costs %g more than the float winner (2·tol=%g, nBits=%d B=%d snr=%g)",
				d, 2*tol, nBits, beam, snr)
		}
	}
	return bytes.Equal(msgF, msgQ), bytes.Equal(msgQ, msg), bytes.Equal(msgF, msg)
}

// TestQuantFloatEquivalenceGrid sweeps SNR × block size × beam width.
// Beyond the per-cell contracts, the grid as a whole must show the two
// kernels overwhelmingly agreeing bit for bit, and the quantized kernel
// losing no decoding power: wherever float recovers the true message,
// quantized does too except for (rare, tolerated) near-ties.
func TestQuantFloatEquivalenceGrid(t *testing.T) {
	rng := rand.New(rand.NewSource(501))
	cells, agreeN := 0, 0
	floatWins, quantWins := 0, 0
	seed := int64(9000)
	for _, snr := range []float64{6, 12, 20} {
		for _, nBits := range []int{32, 96, 256} {
			for _, beam := range []int{8, 64, 256} {
				seed++
				agree, qc, fc := quantGridCell(t, rng, nBits, beam, snr, seed)
				cells++
				if agree {
					agreeN++
				}
				if fc && !qc {
					floatWins++
				}
				if qc && !fc {
					quantWins++
				}
			}
		}
	}
	if agreeN < cells*3/4 {
		t.Fatalf("kernels agree on only %d/%d grid cells — tie-breaking noise should be rare", agreeN, cells)
	}
	if floatWins > cells/10 {
		t.Fatalf("quantized kernel lost the true message on %d/%d cells where float found it", floatWins, cells)
	}
	t.Logf("grid: %d cells, %d bit-identical, float-only correct %d, quant-only correct %d",
		cells, agreeN, floatWins, quantWins)
}

// TestQuantFloatExhaustiveML pins kernel agreement where it is a
// theorem. With B = 2^nBits neither search ever prunes, so both are
// exhaustive maximum-likelihood decoders: the float search must return
// a message of minimum float path cost over all 2^nBits messages (found
// here by brute force), and the quantized one a message within 2·tol of
// that minimum — its quantized cost is at most the float winner's, and
// each message's quantized cost is within tol of its float path cost.
// (For B-limited searches no such bound holds: beams that differ near
// the B-th boundary can end anywhere; see FuzzQuantizedDecode.) Low
// SNRs and near-zero planes, the fuzz counterexample's flavour, make
// near-ties common.
func TestQuantFloatExhaustiveML(t *testing.T) {
	rng := rand.New(rand.NewSource(503))
	seed := int64(9500)
	for _, nBits := range []int{3, 6, 9} {
		for k := 1; k <= 4; k++ {
			for _, snr := range []float64{-3, 3, 10} {
				for _, nearZero := range []bool{false, true} {
					seed++
					pF := Params{K: k, B: 1 << nBits, D: 1, C: 6, Tail: 2, Ways: 8, Seed: rng.Uint32(), Kernel: KernelFloat}
					pQ := pF
					pQ.Kernel = KernelQuantized
					enc := NewEncoder(randomMessage(rng, nBits), nBits, pF)
					decF := NewDecoder(nBits, pF)
					decQ := NewDecoder(nBits, pQ)
					ref := newRefDecoder(nBits, pF)
					sched := enc.NewSchedule()
					ch := channel.NewAWGN(snr, seed)
					zeroPending := nearZero
					for sub := 0; sub < pF.Ways; sub++ {
						ids := sched.NextSubpass()
						y := ch.Transmit(enc.Symbols(ids))
						if zeroPending && len(y) > 0 {
							y[0] = complex(1e-76, 1e-76)
							zeroPending = false
						}
						decF.Add(ids, y)
						decQ.Add(ids, y)
						ref.addFaded(ids, y, nil)
					}

					best := math.Inf(1)
					cand := make([]byte, (nBits+7)/8)
					for m := 0; m < 1<<nBits; m++ {
						for i := range cand {
							cand[i] = byte(m >> (8 * i))
						}
						best = math.Min(best, ref.pathCost(cand))
					}

					msgF, _ := decF.Decode()
					msgQ, _ := decQ.Decode()
					if decQ.KernelUsed() != KernelQuantized {
						t.Fatalf("quantized decoder fell back to kernel %d", decQ.KernelUsed())
					}
					cell := fmt.Sprintf("nBits=%d K=%d snr=%g nearZero=%v", nBits, k, snr, nearZero)
					if costF := ref.pathCost(msgF); !relClose(costF, best) {
						t.Fatalf("%s: float search returned path cost %g, exhaustive ML is %g", cell, costF, best)
					}
					tol := decQ.QuantTolerance()
					if d := ref.pathCost(msgQ) - best; d > 2*tol {
						t.Fatalf("%s: quantized message costs %g above exhaustive ML (2·tol=%g)", cell, d, 2*tol)
					}
				}
			}
		}
	}
}

// TestQuantDecodeDeterministic: the quantized decode is a pure function
// of the stored symbols — repeated decodes of one decoder and decodes of
// an identically-fed fresh decoder return byte-identical messages and
// bit-identical costs (selection over unique packed keys leaves no room
// for block-boundary or encounter-order effects).
func TestQuantDecodeDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(502))
	p := Params{K: 4, B: 64, D: 1, C: 6, Tail: 2, Ways: 8, Kernel: KernelQuantized}
	nBits := 192
	msg := randomMessage(rng, nBits)
	enc := NewEncoder(msg, nBits, p)
	dec1 := NewDecoder(nBits, p)
	dec2 := NewDecoder(nBits, p)
	sched := enc.NewSchedule()
	ch := channel.NewAWGN(10, 777)
	for sub := 0; sub < 2*p.Ways; sub++ {
		ids := sched.NextSubpass()
		y := ch.Transmit(enc.Symbols(ids))
		dec1.Add(ids, y)
		dec2.Add(ids, y)
	}
	m1, c1 := dec1.Decode()
	first := append([]byte(nil), m1...)
	for i := 0; i < 5; i++ {
		m, c := dec1.Decode()
		if !bytes.Equal(m, first) || c != c1 {
			t.Fatalf("decode %d of the same decoder drifted: cost %g vs %g", i, c, c1)
		}
	}
	m2, c2 := dec2.Decode()
	if !bytes.Equal(m2, first) || c2 != c1 {
		t.Fatalf("identically-fed decoder drifted: cost %g vs %g", c2, c1)
	}
	if dec1.KernelUsed() != KernelQuantized || dec2.KernelUsed() != KernelQuantized {
		t.Fatal("determinism test did not exercise the quantized kernel")
	}
}

// TestQuantDecodeBlockIndependent: the decode does not depend on how a
// step is cut into expansion blocks. Every multiple of one parent's
// 2^K children up to 512 candidates, as block size, returns the message,
// cost and QuantTolerance of the block size Decode uses, for every width and
// fan-out, on noisy symbols, on early attempts whose punctured steps
// hold no symbols, and with saturating received values. It holds because
// the survivors are the B smallest unique keys: the threshold is the
// B-th smallest key's cost so far, and a later block only holds larger
// origins, so no key it drops at or above that cost can be among them.
func TestQuantDecodeBlockIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(505))
	const nBits = 60 // K=8 leaves a 4-bit last chunk
	for _, k := range []int{1, 4, 8} {
		for _, B := range []int{1, 4, 16, 32, 64, 256} {
			p := Params{K: k, B: B, D: 1, C: 6, Tail: 2, Ways: 8, Kernel: KernelQuantized}
			msg := randomMessage(rng, nBits)
			enc := NewEncoder(msg, nBits, p)
			dec := NewDecoder(nBits, p)
			sched := enc.NewSchedule()
			ch := channel.NewAWGN(6, int64(k*1000+B))
			fan := 1 << uint(k)
			punctured := false
			for sub := 0; sub < 2*p.Ways; sub++ {
				ids := sched.NextSubpass()
				y := ch.Transmit(enc.Symbols(ids))
				if sub == 3 {
					y[0] = complex(math.Inf(1), math.NaN())
					y[len(y)/2] = complex(1e300, -1e300)
				}
				dec.Add(ids, y)
				if sub > 3 && sub != 2*p.Ways-1 {
					continue
				}
				for _, ts := range dec.ts {
					punctured = punctured || len(ts) == 0
				}
				ref, refCost, ok := dec.decodeQuantized(nil, B, quantBlockCand(B, k))
				if !ok {
					t.Fatalf("K=%d B=%d subpass %d: no quantization", k, B, sub)
				}
				refTol := dec.q.tol
				for bc := fan; bc <= 512; bc += fan {
					got, cost, ok := dec.decodeQuantized(nil, B, bc)
					if !ok || !bytes.Equal(got, ref) || cost != refCost || dec.q.tol != refTol {
						t.Fatalf("K=%d B=%d subpass %d: %d-candidate blocks decode %x/%g/%g, %d-candidate blocks %x/%g/%g",
							k, B, sub, bc, got, cost, dec.q.tol, quantBlockCand(B, k), ref, refCost, refTol)
					}
				}
			}
			if !punctured {
				t.Fatalf("K=%d B=%d: no checked attempt had a step without symbols", k, B)
			}
		}
	}
}

// TestQuantK1TightensWithinStep: at K=1 a block of half a step holds
// only B candidates, short of the 2B that triggers a select, so the
// decode also selects the first time the pool reaches B while tau is
// open and parents remain. The first block of a K=1 step therefore
// closes tau, a closed tau is only re-tightened at 2B, and the half-step
// blocks decode the same message at the same cost as one open block per
// step.
func TestQuantK1TightensWithinStep(t *testing.T) {
	for _, B := range []int{2, 4, 16, 64, 256} {
		first := quantBlockCand(B, 1) // no candidate of it is pruned: tau is open
		parents := first >> 1
		if !quantSelectDue(first, B, math.MaxInt32, parents < B) {
			t.Errorf("B=%d: a first block of %d candidates leaves tau open", B, first)
		}
		if quantSelectDue(2*B-1, B, 100, true) || !quantSelectDue(2*B, B, 100, true) {
			t.Errorf("B=%d: a closed tau is not re-selected exactly at a pool of 2B", B)
		}
		if quantSelectDue(B, B, math.MaxInt32, false) {
			t.Errorf("B=%d: a select is due after the step's last block", B)
		}
	}
	rng := rand.New(rand.NewSource(506))
	const nBits = 96
	for _, B := range []int{4, 16, 64} {
		p := Params{K: 1, B: B, D: 1, C: 6, Tail: 2, Ways: 8, Kernel: KernelQuantized}
		msg := randomMessage(rng, nBits)
		enc := NewEncoder(msg, nBits, p)
		dec := NewDecoder(nBits, p)
		sched := enc.NewSchedule()
		ch := channel.NewAWGN(6, int64(B))
		for sub := 0; sub < 2*p.Ways; sub++ {
			ids := sched.NextSubpass()
			dec.Add(ids, ch.Transmit(enc.Symbols(ids)))
		}
		got, cost, ok := dec.decodeQuantized(nil, B, quantBlockCand(B, 1))
		want, wantCost, wantOK := dec.decodeQuantized(nil, B, 2*B)
		if !ok || !wantOK || !bytes.Equal(got, want) || cost != wantCost {
			t.Fatalf("B=%d: half-step blocks decode %x/%g, whole-step blocks %x/%g", B, got, cost, want, wantCost)
		}
	}
}

// TestQuantDecodeSteadyStateAllocs: the quantized path owns all its
// scratch; after warmup a decode performs zero allocations (the float
// analogue is TestDecodeSteadyStateAllocs).
func TestQuantDecodeSteadyStateAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(503))
	p := Params{K: 4, B: 64, D: 1, C: 6, Tail: 2, Ways: 8, Kernel: KernelQuantized}
	nBits := 256
	msg := randomMessage(rng, nBits)
	enc := NewEncoder(msg, nBits, p)
	dec := NewDecoder(nBits, p)
	ch := channel.NewAWGN(15, 44)
	sched := enc.NewSchedule()
	for sub := 0; sub < 2*p.Ways; sub++ {
		ids := sched.NextSubpass()
		dec.Add(ids, ch.Transmit(enc.Symbols(ids)))
	}
	for i := 0; i < 3; i++ {
		dec.Decode()
	}
	if dec.KernelUsed() != KernelQuantized {
		t.Fatalf("allocs test did not exercise the quantized kernel (got %d)", dec.KernelUsed())
	}
	if avg := testing.AllocsPerRun(20, func() { dec.Decode() }); avg != 0 {
		t.Fatalf("steady-state quantized Decode allocates: %g allocs/op", avg)
	}
	// Narrow decodes cut steps into smaller blocks; the scratch stays
	// sized for the full width, so a full decode after one allocates
	// nothing.
	for _, w := range []int{1, 4, 16} {
		if avg := testing.AllocsPerRun(20, func() {
			dec.DecodeWidth(w)
			dec.Decode()
		}); avg != 0 {
			t.Fatalf("steady-state DecodeWidth(%d) then Decode allocates: %g allocs/op", w, avg)
		}
	}
}

// TestQuantKernelFallbacks: every condition the quantized kernel cannot
// serve routes the decode to the float path — visibly, via KernelUsed —
// rather than silently degrading: per-symbol fading, lookahead D>1, a
// non-one-at-a-time hash, a state stash beyond the quantMaxStates bound,
// and an explicit KernelFloat request. QuantTolerance is zero whenever
// the float path answered.
func TestQuantKernelFallbacks(t *testing.T) {
	rng := rand.New(rand.NewSource(504))
	run := func(name string, p Params, faded bool) {
		t.Helper()
		nBits := 64
		msg := randomMessage(rng, nBits)
		enc := NewEncoder(msg, nBits, p)
		dec := NewDecoder(nBits, p)
		s := enc.NewSchedule()
		ch := channel.NewAWGN(14, 99)
		for sub := 0; sub < 2*p.Ways; sub++ {
			ids := s.NextSubpass()
			x := enc.Symbols(ids)
			if faded {
				y := ch.Transmit(x)
				h := make([]complex128, len(y))
				for i := range h {
					h[i] = 1
				}
				dec.AddFaded(ids, y, h)
			} else {
				dec.Add(ids, ch.Transmit(x))
			}
		}
		got, _ := dec.Decode()
		if dec.KernelUsed() != KernelFloat {
			t.Fatalf("%s: expected float fallback, ran kernel %d", name, dec.KernelUsed())
		}
		if dec.QuantTolerance() != 0 {
			t.Fatalf("%s: QuantTolerance %g after a float decode", name, dec.QuantTolerance())
		}
		if !bytes.Equal(got, msg) {
			t.Fatalf("%s: fallback decode failed outright", name)
		}
	}

	base := Params{K: 4, B: 16, D: 1, C: 6, Tail: 2, Ways: 8, Kernel: KernelQuantized}

	run("faded symbols", base, true)

	d2 := base
	d2.D = 2
	run("lookahead d=2", d2, false)

	l3 := base
	l3.Hash = hashfn.Lookup3{}
	run("non-OAAT hash", l3, false)

	wide := base
	wide.K = 8
	wide.B = 1 << 15 // B·2^K = 2^23 > quantMaxStates
	run("state stash bound", wide, false)

	forced := base
	forced.Kernel = KernelFloat
	run("explicit KernelFloat", forced, false)
}
