package code

import (
	"bytes"
	"sync"
	"testing"

	"spinal/internal/core"
)

// TestSpinalBuildsEncoderLazily: code.Spinal builds its template encoder
// on the first NewEncoder, so a decode-only user (a pool decoder, a
// standalone receiver) pays for no encoder: Spinal(p) costs fewer
// allocations than one encoder, and Spinal(p) plus a decoder fewer than
// a decoder plus an encoder. (Parameters are defaulted up front so the
// counts compare construction alone.)
func TestSpinalBuildsEncoderLazily(t *testing.T) {
	p := core.WithDefaults(core.DefaultParams())
	const nBits = 528
	code := testing.AllocsPerRun(20, func() { Spinal(p) })
	codeDecoder := testing.AllocsPerRun(20, func() { Spinal(p).NewDecoder(nBits) })
	decoder := testing.AllocsPerRun(20, func() { core.NewDecoder(nBits, p) })
	encoder := testing.AllocsPerRun(20, func() { core.NewEncoder([]byte{0}, 1, p) })
	if code >= encoder || codeDecoder >= decoder+encoder {
		t.Fatalf("Spinal(p): %g allocs, with NewDecoder %g; an encoder takes %g, a decoder %g — the template is built eagerly",
			code, codeDecoder, encoder, decoder)
	}
}

// TestSpinalConcurrentEncoders: concurrent first NewEncoder calls share
// one template and every encoder emits the symbols a direct
// core.NewEncoder does.
func TestSpinalConcurrentEncoders(t *testing.T) {
	p := core.DefaultParams()
	c := Spinal(p)
	msg := []byte("sixteen bytes!!!")
	ids := c.NewSchedule(128).NextSubpass()
	want := core.NewEncoder(msg, 128, p).Symbols(ids)
	var wg sync.WaitGroup
	got := make([][]complex128, 8)
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = c.NewEncoder(msg, 128).Symbols(ids)
		}()
	}
	wg.Wait()
	for i, g := range got {
		for j := range g {
			if g[j] != want[j] {
				t.Fatalf("encoder %d symbol %d: %v, want %v", i, j, g[j], want[j])
			}
		}
	}
}

// TestSpinalNarrowRung: the spinal decoder offers the B/4 rung only when
// B/4 ≥ 64 and the decode runs on the quantized kernel; where it runs,
// it is a B/4 decode of the same symbols.
func TestSpinalNarrowRung(t *testing.T) {
	msg := []byte("a block for the beam ladder test")
	nBits := len(msg) * 8
	for _, tc := range []struct {
		b      int
		kernel core.Kernel
		narrow bool
	}{
		{16, core.KernelAuto, false},
		{128, core.KernelAuto, false},
		{255, core.KernelAuto, false},
		{256, core.KernelAuto, true},
		{512, core.KernelAuto, true},
		{256, core.KernelFloat, false},
	} {
		p := core.DefaultParams()
		p.B, p.Kernel = tc.b, tc.kernel
		c := Spinal(p)
		sched := c.NewSchedule(nBits)
		enc := c.NewEncoder(msg, nBits)
		dec := c.NewDecoder(nBits)
		pw := p
		pw.B = tc.b / 4
		ref := core.NewDecoder(nBits, pw)
		for i := 0; i < 16; i++ {
			ids := sched.NextSubpass()
			y := enc.Symbols(ids)
			dec.Add(ids, y)
			ref.Add(ids, y)
		}
		got, ok := dec.(NarrowDecoder).DecodeNarrow()
		if ok != tc.narrow {
			t.Fatalf("B=%d kernel %d: narrow rung %v, want %v", tc.b, tc.kernel, ok, tc.narrow)
		}
		if !ok {
			continue
		}
		if want, _ := ref.Decode(); !bytes.Equal(got, want) || !bytes.Equal(got, msg) {
			t.Fatalf("B=%d: narrow rung decoded %x, B/4 decoder %x, sent %x", tc.b, got, want, msg)
		}
	}
}
