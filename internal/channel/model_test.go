package channel

import (
	"bufio"
	"math"
	"os"
	"strings"
	"testing"
)

// sampleStates transmits n symbols one at a time and records StateDB
// before each, yielding the per-symbol SNR trajectory.
func sampleStates(m Model, n int) []float64 {
	out := make([]float64, n)
	x := make([]complex128, 1)
	for i := range out {
		m.Transmit(x)
		out[i] = m.StateDB()
	}
	return out
}

func TestAWGNStateDB(t *testing.T) {
	for _, snr := range []float64{-3, 0, 7.5, 25} {
		if got := NewAWGN(snr, 1).StateDB(); math.Abs(got-snr) > 1e-9 {
			t.Errorf("AWGN(%g).StateDB() = %g", snr, got)
		}
	}
}

func TestGilbertElliottStateDBTracksState(t *testing.T) {
	c := NewGilbertElliott(20, 0, 0.05, 0.05, 9)
	states := sampleStates(c, 20000)
	var good, bad, other int
	for _, s := range states {
		switch {
		case math.Abs(s-20) < 1e-9:
			good++
		case math.Abs(s) < 1e-9:
			bad++
		default:
			other++
		}
	}
	if other > 0 {
		t.Fatalf("%d samples outside the two states", other)
	}
	if good == 0 || bad == 0 {
		t.Fatalf("states never alternated: good=%d bad=%d", good, bad)
	}
}

// TestGilbertElliottStationaryFraction is the Markov property check: over
// a long run the fraction of symbols in the Bad state must match the
// stationary distribution pGB/(pGB+pBG) of the two-state chain, for a
// table of parameter draws.
func TestGilbertElliottStationaryFraction(t *testing.T) {
	cases := []struct{ pGB, pBG float64 }{
		{0.01, 0.01},
		{0.02, 0.08},
		{0.004, 0.016},
		{0.05, 0.01},
		{0.001, 0.009},
	}
	for i, c := range cases {
		ch := NewGilbertElliott(20, 0, c.pGB, c.pBG, int64(100+i))
		ch.Transmit(make([]complex128, 400000))
		want := c.pGB / (c.pGB + c.pBG)
		if got := ch.BadFraction(); math.Abs(got-want) > 0.05 {
			t.Errorf("pGB=%g pBG=%g: bad fraction %.3f, want %.3f ± 0.05",
				c.pGB, c.pBG, got, want)
		}
	}
}

func TestWalkStaysBounded(t *testing.T) {
	c := NewWalk(10, 3, 25, 2, 5, 77)
	for _, s := range sampleStates(c, 20000) {
		if s < 3-1e-9 || s > 25+1e-9 {
			t.Fatalf("walk escaped bounds: %g", s)
		}
	}
}

func TestWalkMoves(t *testing.T) {
	c := NewWalk(10, 0, 30, 1, 4, 3)
	states := sampleStates(c, 5000)
	seen := map[float64]bool{}
	for _, s := range states {
		seen[s] = true
	}
	if len(seen) < 5 {
		t.Fatalf("walk visited only %d SNR levels in 5000 symbols", len(seen))
	}
	// Steps land only every interval symbols.
	changes := 0
	for i := 1; i < len(states); i++ {
		if states[i] != states[i-1] {
			changes++
		}
	}
	if changes > len(states)/4 {
		t.Fatalf("walk changed state %d times in %d symbols at interval 4", changes, len(states))
	}
}

func TestWalkDeterministic(t *testing.T) {
	a := sampleStates(NewWalk(12, 0, 24, 1, 3, 5), 1000)
	b := sampleStates(NewWalk(12, 0, 24, 1, 3, 5), 1000)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed produced different walks")
		}
	}
}

func TestWalkClampsStart(t *testing.T) {
	if got := NewWalk(99, 0, 20, 1, 1, 0).StateDB(); got != 20 {
		t.Fatalf("start not clamped: %g", got)
	}
}

// TestTraceStateIndependentOfSeed is the determinism property: the SNR
// trajectory of a trace replay is a pure function of symbol position —
// different seeds change the noise, never the state sequence.
func TestTraceStateIndependentOfSeed(t *testing.T) {
	segs := []TraceSegment{{5, 20}, {3, 6}, {7, 14}}
	a := sampleStates(NewTrace(segs, 1), 40)
	b := sampleStates(NewTrace(segs, 999), 40)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("seed changed trace state at symbol %d: %g vs %g", i, a[i], b[i])
		}
	}
	// And the trajectory follows the segments, wrapping at the end.
	want := []float64{20, 20, 20, 20, 20, 6, 6, 6, 14, 14, 14, 14, 14, 14, 14}
	for i := 0; i < 30; i++ {
		if a[i] != want[i%15] {
			t.Fatalf("symbol %d saw %g dB, want %g", i, a[i], want[i%15])
		}
	}
}

func TestTraceNoisePowerFollowsState(t *testing.T) {
	segs := []TraceSegment{{50000, 20}, {50000, 0}}
	c := NewTrace(segs, 11)
	y := c.Transmit(make([]complex128, 100000))
	var pHigh, pLow float64
	for i, s := range y {
		p := real(s)*real(s) + imag(s)*imag(s)
		if i < 50000 {
			pHigh += p
		} else {
			pLow += p
		}
	}
	pHigh /= 50000
	pLow /= 50000
	if math.Abs(pHigh-0.01) > 0.002 {
		t.Errorf("20 dB segment noise power %g, want 0.01", pHigh)
	}
	if math.Abs(pLow-1) > 0.05 {
		t.Errorf("0 dB segment noise power %g, want 1", pLow)
	}
}

func TestParseTrace(t *testing.T) {
	in := "# comment\n\n600 20\n  200 -3.5 \n"
	segs, err := ParseTrace(bufio.NewScanner(strings.NewReader(in)))
	if err != nil {
		t.Fatal(err)
	}
	want := []TraceSegment{{600, 20}, {200, -3.5}}
	if len(segs) != len(want) {
		t.Fatalf("parsed %d segments, want %d", len(segs), len(want))
	}
	for i := range want {
		if segs[i] != want[i] {
			t.Fatalf("segment %d = %+v, want %+v", i, segs[i], want[i])
		}
	}
}

func TestParseTraceErrors(t *testing.T) {
	for _, in := range []string{
		"",                               // no segments
		"# only comments\n",              // no segments
		"600\n",                          // missing SNR
		"x 20\n",                         // bad count
		"0 20\n",                         // non-positive count
		"10 zz\n",                        // bad SNR
		"1 2 3\n",                        // too many fields
		"10 NaN\n",                       // non-finite SNR
		"10 +Inf\n",                      // non-finite SNR
		"10 -Inf\n",                      // non-finite SNR
		"10 100.5\n",                     // SNR past ±100 dB
		"9223372036854775807 10\n1 10\n", // total overflows int
	} {
		if _, err := ParseTrace(bufio.NewScanner(strings.NewReader(in))); err == nil {
			t.Errorf("ParseTrace(%q) succeeded, want error", in)
		}
	}
}

// FuzzParseTrace: trace files are outside input (-scenario trace:<file>,
// LoadTrace). No input panics, and every accepted trace has finite SNRs,
// segments of at least one symbol, builds a Trace, and has a MeanDB
// within the range of its segment SNRs.
func FuzzParseTrace(f *testing.F) {
	for _, name := range []string{"testdata/stepdown.trace", "testdata/fade.trace"} {
		data, err := os.ReadFile(name)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(data))
	}
	f.Add("# comment\n\n600 20\n  200 -3.5 \n")
	f.Fuzz(func(t *testing.T, in string) {
		segs, err := ParseTrace(bufio.NewScanner(strings.NewReader(in)))
		if err != nil {
			return
		}
		lo, hi := math.Inf(1), math.Inf(-1)
		for i, s := range segs {
			if s.Symbols < 1 || math.IsNaN(s.SNRdB) || math.IsInf(s.SNRdB, 0) {
				t.Fatalf("accepted segment %d = %+v", i, s)
			}
			lo, hi = math.Min(lo, s.SNRdB), math.Max(hi, s.SNRdB)
		}
		mean := NewTrace(segs, 1).MeanDB()
		if math.IsNaN(mean) || mean < lo-1e-9*math.Abs(lo) || mean > hi+1e-9*math.Abs(hi) {
			t.Fatalf("MeanDB %v outside the segment SNR range [%v, %v]", mean, lo, hi)
		}
	})
}

func TestLoadTraceTestdata(t *testing.T) {
	for _, name := range []string{"testdata/stepdown.trace", "testdata/fade.trace"} {
		segs, err := LoadTrace(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(segs) < 3 {
			t.Fatalf("%s: only %d segments", name, len(segs))
		}
	}
	if _, err := LoadTrace("testdata/does-not-exist.trace"); err == nil {
		t.Fatal("missing file loaded")
	}
}

func TestTracePanics(t *testing.T) {
	for name, f := range map[string]func(){
		"empty trace":  func() { NewTrace(nil, 0) },
		"zero segment": func() { NewTrace([]TraceSegment{{0, 10}}, 0) },
		"walk bounds":  func() { NewWalk(10, 20, 0, 1, 1, 0) },
		"walk step":    func() { NewWalk(10, 0, 20, -1, 1, 0) },
		"walk tick":    func() { NewWalk(10, 0, 20, 1, 0, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			f()
		}()
	}
}
