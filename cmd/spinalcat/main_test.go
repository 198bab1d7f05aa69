package main

import (
	"math"
	"strconv"
	"strings"
	"testing"
)

// TestParseFaultsRejects: non-finite and out-of-range values are errors,
// not silent fault configurations.
func TestParseFaultsRejects(t *testing.T) {
	for _, bad := range []string{"dup=NaN", "dup=-1", "dup=1.5", "corrupt=Inf",
		"bits=1e9", "bits=2.5", "depth=-3", "blackoutlen=1e6", "reorder=1e9",
		"chaos=-1", "chaos=NaN", "seed=1e30", "ackdup=+Inf", "nosuchkey=1", "dup=x",
		"seed=1.5", "seed=-0.5", "seed=1e16", "seed=9007199254740994.0", "seed=9223372036854775808"} {
		if fc, err := parseFaults(bad); err == nil {
			t.Errorf("%q accepted as %+v", bad, *fc)
		}
	}
	fc, err := parseFaults("reorder=4,dup=0.05,corrupt=0.01,bits=8,blackoutlen=16")
	if err != nil {
		t.Fatal(err)
	}
	if fc.ReorderDepth != 4 || fc.FrameReorder != 0.15 || fc.FrameDup != 0.05 ||
		fc.CorruptBits != 8 || fc.BlackoutRounds != 16 {
		t.Fatalf("parsed %+v", *fc)
	}
	for spec, want := range map[string]int64{
		"seed=9007199254740993":      9007199254740993, // 2⁵³+1: a float64 rounds it to 2⁵³
		"seed=9223372036854775807":   math.MaxInt64,
		"seed=-9223372036854775808":  math.MinInt64,
		"seed=1e3":                   1000,
		"seed=-9.007199254740992e15": -(1 << 53),
		"seed=7,chaos":               0, // chaos replaces the whole configuration
		"chaos,seed=7":               7,
	} {
		fc, err := parseFaults(spec)
		if err != nil {
			t.Errorf("%q: %v", spec, err)
		} else if fc.Seed != want {
			t.Errorf("%q: seed %d, want %d", spec, fc.Seed, want)
		}
	}
}

// FuzzParseFaults holds the -faults grammar to its contract: no spec
// panics, every accepted spec has finite probabilities in [0, 1] and
// bounded depth, bit-flip and blackout counts, and an accepted seed
// whose text is a decimal int64 is exactly that int64.
func FuzzParseFaults(f *testing.F) {
	for _, spec := range []string{"", "chaos", "chaos=2", "reorder=4,dup=0.05,corrupt=0.01",
		"reorder=0.3,depth=8", "bits=1e9", "dup=NaN", "dup=-1", "blackout=0.1,blackoutlen=3",
		"ackreorder=0.2,ackdup=0.1,acktrunc=0.1,ackcorrupt=0.1,seed=7", "chaos=1e300,bits=3",
		"seed=9007199254740993", "seed=1e3", "seed=1.5", "seed=-9223372036854775808"} {
		f.Add(spec)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		fc, err := parseFaults(spec)
		if err != nil || fc == nil {
			return
		}
		for _, p := range []float64{fc.FrameReorder, fc.FrameDup, fc.FrameTruncate, fc.FrameCorrupt,
			fc.Blackout, fc.AckReorder, fc.AckDup, fc.AckTruncate, fc.AckCorrupt} {
			if math.IsNaN(p) || p < 0 || p > 1 {
				t.Fatalf("%q: probability %v in %+v", spec, p, *fc)
			}
		}
		for _, n := range []int{fc.ReorderDepth, fc.CorruptBits, fc.BlackoutRounds} {
			if n < 0 || n > maxFaultCount {
				t.Fatalf("%q: count %d in %+v", spec, n, *fc)
			}
		}
		// The last seed= field decides the seed unless a later chaos
		// field replaces the configuration.
		var want int64
		known := true
		for _, field := range strings.Split(spec, ",") {
			key, val, _ := strings.Cut(strings.TrimSpace(field), "=")
			switch key {
			case "chaos":
				known = false
			case "seed":
				s, err := strconv.ParseInt(val, 10, 64)
				want, known = s, err == nil
			}
		}
		if known && fc.Seed != want {
			t.Fatalf("%q: seed %d, want %d", spec, fc.Seed, want)
		}
	})
}
