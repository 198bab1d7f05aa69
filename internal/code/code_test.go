package code

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"spinal/internal/core"
)

// awgn perturbs symbols with complex Gaussian noise of total variance
// sigma2 (unit-power constellations: SNR = 1/sigma2).
func awgn(rng *rand.Rand, syms []complex128, sigma2 float64) []complex128 {
	s := math.Sqrt(sigma2 / 2)
	out := make([]complex128, len(syms))
	for i, y := range syms {
		out[i] = y + complex(rng.NormFloat64()*s, rng.NormFloat64()*s)
	}
	return out
}

// roundTrip drives one block through schedule → encode → AWGN → decode
// until the decoder reproduces the message, checking the schedule never
// repeats an ID along the way. Returns the symbols spent, or -1.
func roundTrip(t *testing.T, c Code, nBits int, snrDB float64, maxSymbols int, seed int64) int {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	msg := make([]byte, nBits/8)
	rng.Read(msg)

	sched := c.NewSchedule(nBits)
	enc := c.NewEncoder(msg, nBits)
	dec := c.NewDecoder(nBits)
	sigma2 := math.Pow(10, -snrDB/10)

	seen := make(map[SymbolID]bool)
	sent, empty := 0, 0
	for sent < maxSymbols {
		ids := sched.NextSubpass()
		if len(ids) == 0 {
			if empty++; empty > 64 {
				break // schedule exhausted (bounded-pass codes)
			}
			continue
		}
		empty = 0
		for _, id := range ids {
			if seen[id] {
				t.Fatalf("%s: schedule repeated ID %+v", c.Name(), id)
			}
			seen[id] = true
			if int(id.Chunk) >= c.Chunks(nBits) {
				t.Fatalf("%s: chunk %d out of range", c.Name(), id.Chunk)
			}
		}
		syms := enc.Symbols(ids)
		if len(syms) != len(ids) {
			t.Fatalf("%s: %d ids but %d symbols", c.Name(), len(ids), len(syms))
		}
		dec.Add(ids, awgn(rng, syms, sigma2))
		sent += len(ids)
		if got, ok := dec.Decode(); ok && bytes.Equal(got, msg) {
			return sent
		}
	}
	return -1
}

// codeUnderTest pairs a code with an SNR it must comfortably decode at.
type codeUnderTest struct {
	c     Code
	snrDB float64
}

func codesUnderTest() []codeUnderTest {
	ldpcHalf, _ := LDPCPinned("1/2")
	return []codeUnderTest{
		{Spinal(core.DefaultParams()), 15},
		{Raptor(), 15},
		{Strider(), 10},
		{Turbo(), 6},
		{LDPC(""), 12},
		{ldpcHalf, 12},
	}
}

func TestRoundTripAllCodes(t *testing.T) {
	for _, cut := range codesUnderTest() {
		cut := cut
		t.Run(cut.c.Name(), func(t *testing.T) {
			for _, nBits := range []int{64, 192} {
				spent := roundTrip(t, cut.c, nBits, cut.snrDB, 80*nBits, int64(nBits))
				if spent < 0 {
					t.Fatalf("%s: no decode of %d bits at %.0f dB", cut.c.Name(), nBits, cut.snrDB)
				}
				t.Logf("%s: %d bits at %.0f dB decoded after %d symbols (%.2f b/sym)",
					cut.c.Name(), nBits, cut.snrDB, spent, float64(nBits)/float64(spent))
			}
		})
	}
}

// TestEncoderRegeneration checks the stateless-encoder contract: any ID
// subset, in any order, yields the same symbols as a bulk query — the
// property the engine's pooled per-batch encoders rely on.
func TestEncoderRegeneration(t *testing.T) {
	const nBits = 64
	for _, cut := range codesUnderTest() {
		cut := cut
		t.Run(cut.c.Name(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(7))
			msg := make([]byte, nBits/8)
			rng.Read(msg)
			sched := cut.c.NewSchedule(nBits)
			var ids []SymbolID
			for len(ids) < 40 {
				ids = append(ids, sched.NextSubpass()...)
			}
			bulk := cut.c.NewEncoder(msg, nBits).Symbols(ids)
			// A second encoder queried back to front must agree.
			enc2 := cut.c.NewEncoder(msg, nBits)
			for i := len(ids) - 1; i >= 0; i-- {
				got := enc2.Symbols(ids[i : i+1])
				if len(got) != 1 || got[0] != bulk[i] {
					t.Fatalf("%s: symbol %d regenerated as %v, want %v", cut.c.Name(), i, got, bulk[i])
				}
			}
		})
	}
}

// TestDecoderReset checks Reset discards observations: a decoder reused
// across blocks must decode the second block's message, not the first's.
func TestDecoderReset(t *testing.T) {
	const nBits = 64
	for _, cut := range codesUnderTest() {
		cut := cut
		t.Run(cut.c.Name(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(11))
			msgA := make([]byte, nBits/8)
			msgB := make([]byte, nBits/8)
			rng.Read(msgA)
			rng.Read(msgB)
			dec := cut.c.NewDecoder(nBits)
			// Fill with block A cleanly, then Reset and decode block B.
			feed := func(msg []byte) {
				sched := cut.c.NewSchedule(nBits)
				enc := cut.c.NewEncoder(msg, nBits)
				sent := 0
				for sent < 20*nBits {
					ids := sched.NextSubpass()
					if len(ids) == 0 {
						break
					}
					dec.Add(ids, awgn(rng, enc.Symbols(ids), math.Pow(10, -cut.snrDB/10)))
					sent += len(ids)
					if got, ok := dec.Decode(); ok && bytes.Equal(got, msg) {
						return
					}
				}
				t.Fatalf("%s: feed did not decode", cut.c.Name())
			}
			feed(msgA)
			dec.Reset()
			feed(msgB)
		})
	}
}

func TestParse(t *testing.T) {
	p := core.DefaultParams()
	for spec, want := range map[string]string{
		"spinal": "spinal", "": "spinal", "raptor": "raptor",
		"strider": "strider", "turbo": "turbo", "ldpc": "ldpc",
		"ldpc:3/4": "ldpc:3/4",
	} {
		c, err := Parse(spec, p)
		if err != nil {
			t.Fatalf("Parse(%q): %v", spec, err)
		}
		if c.Name() != want {
			t.Fatalf("Parse(%q).Name() = %q, want %q", spec, c.Name(), want)
		}
	}
	for _, bad := range []string{"ldpc:7/8", "spinal:x", "hamming", "raptor:1"} {
		if _, err := Parse(bad, p); err == nil {
			t.Fatalf("Parse(%q) succeeded, want error", bad)
		}
	}
}

// FuzzParseCode holds code.Parse, the parser of spinalcat's -code flag,
// to two properties on arbitrary specs: it never panics, and an
// accepted spec's Name parses back to a code of the same Name.
func FuzzParseCode(f *testing.F) {
	for _, spec := range []string{
		"", "spinal", "raptor", "strider", "turbo", "ldpc",
		"ldpc:1/2", "ldpc:2/3", "ldpc:3/4", "ldpc:5/6",
		"ldpc:", "spinal:x", "ldpc:1/3",
	} {
		f.Add(spec)
	}
	p := core.DefaultParams()
	f.Fuzz(func(t *testing.T, spec string) {
		c, err := Parse(spec, p)
		if err != nil {
			return
		}
		back, err := Parse(c.Name(), p)
		if err != nil {
			t.Fatalf("Parse(%q).Name() = %q does not parse: %v", spec, c.Name(), err)
		}
		if back.Name() != c.Name() {
			t.Fatalf("Parse(%q).Name() = %q parses back to %q", spec, c.Name(), back.Name())
		}
	})
}
