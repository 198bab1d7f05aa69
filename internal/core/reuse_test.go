package core

import (
	"bytes"
	"math/rand"
	"testing"

	"spinal/internal/channel"
	"spinal/internal/hashfn"
)

// TestDecoderResetReuse: one decoder serves many messages via Reset, and
// behaves identically to a fresh decoder for each.
func TestDecoderResetReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(90))
	p := testParams()
	nBits := 96
	reused := NewDecoder(nBits, p)
	for round := 0; round < 5; round++ {
		msg := randomMessage(rng, nBits)
		enc := NewEncoder(msg, nBits, p)
		fresh := NewDecoder(nBits, p)
		ch := channel.NewAWGN(15, int64(500+round))
		sched := enc.NewSchedule()
		reused.Reset()
		for sub := 0; sub < 2*p.Ways; sub++ {
			ids := sched.NextSubpass()
			y := ch.Transmit(enc.Symbols(ids))
			reused.Add(ids, y)
			fresh.Add(ids, y)
		}
		gotR, costR := reused.Decode()
		gotF, costF := fresh.Decode()
		if !bytes.Equal(gotR, gotF) || costR != costF {
			t.Fatalf("round %d: reused decoder (%x, %g) != fresh decoder (%x, %g)",
				round, gotR, costR, gotF, costF)
		}
		if !bytes.Equal(gotR, msg) {
			t.Fatalf("round %d: decode failed at SNR 15", round)
		}
		if reused.SymbolCount() != fresh.SymbolCount() {
			t.Fatalf("round %d: symbol counts differ after reset", round)
		}
	}
}

// TestDecoderResetClearsFading: a reset decoder must not leak per-chunk
// fading state into the next message.
func TestDecoderResetClearsFading(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	p := testParams()
	nBits := 64
	dec := NewDecoder(nBits, p)

	// Round 1: faded symbols.
	msg := randomMessage(rng, nBits)
	enc := NewEncoder(msg, nBits, p)
	ray := channel.NewRayleigh(20, 4, 99)
	sched := enc.NewSchedule()
	for sub := 0; sub < 2*p.Ways; sub++ {
		ids := sched.NextSubpass()
		y, h := ray.Transmit(enc.Symbols(ids))
		dec.AddFaded(ids, y, h)
	}
	if got, _ := dec.Decode(); !bytes.Equal(got, msg) {
		t.Fatal("faded decode failed at SNR 20")
	}

	// Round 2: clean AWGN after Reset must decode as if fresh.
	dec.Reset()
	msg2 := randomMessage(rng, nBits)
	enc2 := NewEncoder(msg2, nBits, p)
	sched2 := enc2.NewSchedule()
	for sub := 0; sub < 2*p.Ways; sub++ {
		ids := sched2.NextSubpass()
		dec.Add(ids, enc2.Symbols(ids))
	}
	if got, cost := dec.Decode(); !bytes.Equal(got, msg2) || cost != 0 {
		t.Fatal("noiseless decode after faded reset failed")
	}
}

// TestEncoderResetMatchesFresh: Reset re-targets an encoder exactly as
// constructing a new one would.
func TestEncoderResetMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(92))
	p := testParams()
	nBits := 80
	enc := NewEncoder(randomMessage(rng, nBits), nBits, p)
	for round := 0; round < 3; round++ {
		msg := randomMessage(rng, nBits)
		enc.Reset(msg, nBits)
		want := NewEncoder(msg, nBits, p)
		sched := enc.NewSchedule()
		for sub := 0; sub < p.Ways; sub++ {
			ids := sched.NextSubpass()
			for _, id := range ids {
				if enc.Symbol(id) != want.Symbol(id) {
					t.Fatalf("round %d: symbol %v differs after Reset", round, id)
				}
			}
		}
	}
	// Reset may also change the message length.
	short := randomMessage(rng, 24)
	enc.Reset(short, 24)
	if enc.NumSpine() != numSpine(24, p.K) {
		t.Fatal("Reset did not adjust spine length")
	}
	want := NewEncoder(short, 24, p)
	if enc.Symbol(SymbolID{Chunk: 1, RNGIndex: 3}) != want.Symbol(SymbolID{Chunk: 1, RNGIndex: 3}) {
		t.Fatal("short-message symbols differ after Reset")
	}
}

// TestDecodeSteadyStateAllocs: after warmup, Decode must not allocate at
// all — the scratch beam, candidate and result buffers are all owned by
// the decoder. The first row runs the quantized kernel; the others pin
// every way onto the float path: forced, fading-aware, lookahead and a
// non-default hash.
func TestDecodeSteadyStateAllocs(t *testing.T) {
	base := Params{K: 4, B: 256, D: 1, C: 6, Tail: 2, Ways: 8}
	for _, tc := range []struct {
		name   string
		edit   func(*Params)
		faded  bool
		kernel Kernel
	}{
		{name: "default", edit: func(*Params) {}, kernel: KernelQuantized},
		{name: "KernelFloat", edit: func(p *Params) { p.Kernel = KernelFloat }, kernel: KernelFloat},
		{name: "AddFaded", edit: func(*Params) {}, faded: true, kernel: KernelFloat},
		{name: "D=2", edit: func(p *Params) { p.B, p.D = 64, 2 }, kernel: KernelFloat},
		{name: "Lookup3", edit: func(p *Params) { p.Hash = hashfn.Lookup3{} }, kernel: KernelFloat},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(93))
			p := base
			tc.edit(&p)
			nBits := 256
			msg := randomMessage(rng, nBits)
			enc := NewEncoder(msg, nBits, p)
			dec := NewDecoder(nBits, p)
			ch := channel.NewAWGN(15, 42)
			ray := channel.NewRayleigh(15, 4, 42)
			sched := enc.NewSchedule()
			for sub := 0; sub < 2*p.Ways; sub++ {
				ids := sched.NextSubpass()
				if tc.faded {
					y, h := ray.Transmit(enc.Symbols(ids))
					dec.AddFaded(ids, y, h)
				} else {
					dec.Add(ids, ch.Transmit(enc.Symbols(ids)))
				}
			}
			for i := 0; i < 3; i++ {
				dec.Decode() // warm the scratch buffers up
			}
			if got := dec.KernelUsed(); got != tc.kernel {
				t.Fatalf("decode ran on kernel %v, want %v", got, tc.kernel)
			}
			if avg := testing.AllocsPerRun(20, func() { dec.Decode() }); avg != 0 {
				t.Fatalf("steady-state Decode allocates: %g allocs/op", avg)
			}
		})
	}
}

// TestBSCDecodeSteadyStateAllocs is the BSC analogue, for the default
// hash and a non-default one.
func TestBSCDecodeSteadyStateAllocs(t *testing.T) {
	for _, h := range []hashfn.Hash{hashfn.OneAtATime{}, hashfn.Lookup3{}} {
		t.Run(h.Name(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(94))
			p := Params{K: 4, B: 64, D: 1, C: 1, Tail: 2, Ways: 8, Hash: h}
			nBits := 128
			msg := randomMessage(rng, nBits)
			enc := NewEncoder(msg, nBits, p)
			dec := NewBSCDecoder(nBits, p)
			ch := channel.NewBSC(0.05, 43)
			sched := enc.NewSchedule()
			for sub := 0; sub < 4*p.Ways; sub++ {
				ids := sched.NextSubpass()
				dec.Add(ids, ch.Transmit(enc.Bits(ids)))
			}
			for i := 0; i < 3; i++ {
				dec.Decode()
			}
			if avg := testing.AllocsPerRun(20, func() { dec.Decode() }); avg != 0 {
				t.Fatalf("steady-state BSC Decode allocates: %g allocs/op", avg)
			}
		})
	}
}

// TestAppendSymbolsMatchesSymbols pins the append API to the allocating
// one, including the dst-reuse contract.
func TestAppendSymbolsMatchesSymbols(t *testing.T) {
	rng := rand.New(rand.NewSource(95))
	p := testParams()
	msg := randomMessage(rng, 64)
	enc := NewEncoder(msg, 64, p)
	sched := enc.NewSchedule()
	var buf []complex128
	var bits []byte
	for sub := 0; sub < 3*p.Ways; sub++ {
		ids := sched.NextSubpass()
		buf = enc.AppendSymbols(buf[:0], ids)
		want := enc.Symbols(ids)
		if len(buf) != len(want) {
			t.Fatal("AppendSymbols length mismatch")
		}
		for i := range want {
			if buf[i] != want[i] {
				t.Fatalf("subpass %d: AppendSymbols[%d] = %v, Symbols = %v", sub, i, buf[i], want[i])
			}
		}
		bits = enc.AppendBits(bits[:0], ids)
		wantBits := enc.Bits(ids)
		if !bytes.Equal(bits, wantBits) {
			t.Fatal("AppendBits mismatch")
		}
	}
}

// TestEncoderCloneMatchesFresh: a clone of a template encoder generates
// exactly the symbols a freshly constructed encoder does, and leaves the
// template untouched.
func TestEncoderCloneMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(93))
	p := testParams()
	tmpl := NewEncoder([]byte{0}, 1, p)
	for _, nBits := range []int{1, 24, 80, 101} {
		msg := randomMessage(rng, nBits)
		enc, want := tmpl.Clone(msg, nBits), NewEncoder(msg, nBits, p)
		if enc.NumSpine() != want.NumSpine() {
			t.Fatalf("nBits %d: clone has %d spine values, want %d", nBits, enc.NumSpine(), want.NumSpine())
		}
		sched := enc.NewSchedule()
		for sub := 0; sub < 2*p.Ways; sub++ {
			ids := sched.NextSubpass()
			got, exp := enc.Symbols(ids), want.Symbols(ids)
			for i := range ids {
				if got[i] != exp[i] {
					t.Fatalf("nBits %d: symbol %v differs in the clone", nBits, ids[i])
				}
			}
		}
	}
	if tmpl.NumSpine() != 1 {
		t.Fatal("Clone changed the template's spine")
	}
}
