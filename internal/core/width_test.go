package core

import (
	"bytes"
	"math/rand"
	"testing"

	"spinal/internal/channel"
	"spinal/internal/hashfn"
)

// TestDecodeWidthMatchesNarrowDecoder: DecodeWidth(w) on a decoder built
// for B is the decoder built for B = w, byte for byte and cost for cost,
// and leaves the stored symbols for a full-width Decode after it, which
// returns exactly what a decoder that never ran narrow returns.
func TestDecodeWidthMatchesNarrowDecoder(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	for trial := 0; trial < 12; trial++ {
		nBits := []int{96, 256, 528}[trial%3]
		snr := []float64{4, 8, 12}[trial/4%3]
		p := Params{K: 4, B: 256, D: 1, C: 6, Tail: 2, Ways: 8}
		msg := randomMessage(rng, nBits)
		enc := NewEncoder(msg, nBits, p)
		wide := NewDecoder(nBits, p)
		fresh := NewDecoder(nBits, p)
		narrow := make(map[int]*Decoder)
		for _, w := range []int{1, 4, 8, 16, 64} {
			pw := p
			pw.B = w
			narrow[w] = NewDecoder(nBits, pw)
		}
		sched := enc.NewSchedule()
		ch := channel.NewAWGN(snr, int64(trial))
		for sub := 0; sub < 1+trial%9; sub++ {
			ids := sched.NextSubpass()
			y := ch.Transmit(enc.Symbols(ids))
			wide.Add(ids, y)
			fresh.Add(ids, y)
			for _, d := range narrow {
				d.Add(ids, y)
			}
		}
		for _, w := range []int{1, 4, 8, 16, 64} {
			got, gotCost, ok := wide.DecodeWidth(w)
			if !ok || wide.KernelUsed() != KernelQuantized {
				t.Fatalf("trial %d: DecodeWidth(%d) did not run the quantized kernel", trial, w)
			}
			want, wantCost := narrow[w].Decode()
			if !bytes.Equal(got, want) || gotCost != wantCost {
				t.Fatalf("trial %d: DecodeWidth(%d) = %x/%g, B=%d decoder %x/%g",
					trial, w, got, gotCost, w, want, wantCost)
			}
		}
		got, gotCost := wide.Decode()
		want, wantCost := fresh.Decode()
		if !bytes.Equal(got, want) || gotCost != wantCost {
			t.Fatalf("trial %d: Decode after narrow decodes = %x/%g, fresh %x/%g", trial, got, gotCost, want, wantCost)
		}
		if got, gotCost, _ := wide.DecodeWidth(p.B); !bytes.Equal(got, want) || gotCost != wantCost {
			t.Fatalf("trial %d: DecodeWidth(B) = %x/%g, Decode %x/%g", trial, got, gotCost, want, wantCost)
		}
	}
}

// TestDecodeWidthFloatPath: the float path stays single-width, so every
// decode bound for it — KernelFloat, fading-aware symbols, a hash other
// than one-at-a-time, D > 1 — makes DecodeWidth decode nothing.
func TestDecodeWidthFloatPath(t *testing.T) {
	base := Params{K: 4, B: 64, D: 1, C: 6, Tail: 2, Ways: 8}
	for _, tc := range []struct {
		name  string
		edit  func(*Params)
		faded bool
	}{
		{name: "KernelFloat", edit: func(p *Params) { p.Kernel = KernelFloat }},
		{name: "AddFaded", edit: func(*Params) {}, faded: true},
		{name: "D=2", edit: func(p *Params) { p.D = 2 }},
		{name: "Lookup3", edit: func(p *Params) { p.Hash = hashfn.Lookup3{} }},
	} {
		p := base
		tc.edit(&p)
		msg := randomMessage(rand.New(rand.NewSource(65)), 64)
		enc := NewEncoder(msg, 64, p)
		dec := NewDecoder(64, p)
		ids := enc.NewSchedule().NextSubpass()
		x := enc.Symbols(ids)
		if tc.faded {
			dec.AddFaded(ids, x, make([]complex128, len(x)))
		} else {
			dec.Add(ids, x)
		}
		if m, _, ok := dec.DecodeWidth(16); ok || m != nil {
			t.Errorf("%s: DecodeWidth decoded on the float path", tc.name)
		}
	}
}
