package main

import (
	"fmt"
	"math"
	"sort"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of sorted by linear
// interpolation between closest ranks (numpy's default rule).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func median(xs []float64) float64 { return quantile(sortedCopy(xs), 0.5) }

// tailPercentiles are the candidates for a timing's reported tail, in
// per mille, highest first.
var tailPercentiles = []int{990, 950, 900, 750}

// tailPercentile picks the highest candidate percentile that leaves at
// least ten samples beyond it, so a tail is never read off one or two
// outliers. ok is false when the sample is too small for any candidate.
func tailPercentile(n int) (perMille int, ok bool) {
	for _, p := range tailPercentiles {
		if n*(1000-p)/1000 >= 10 {
			return p, true
		}
	}
	return 0, false
}

// timing is a summarized latency sample: median and tail, each with the
// sample count n it rests on.
type timing struct {
	n      int
	p50    float64
	tailPM int // tail percentile in per mille; 0 when none qualifies
	tail   float64
}

// summarize reduces a sample to its median and its tail percentile.
func summarize(xs []float64) timing {
	s := sortedCopy(xs)
	t := timing{n: len(s), p50: quantile(s, 0.5)}
	if pm, ok := tailPercentile(len(s)); ok {
		t.tailPM = pm
		t.tail = quantile(s, float64(pm)/1000)
	}
	return t
}

func (t timing) tailName() string {
	if t.tailPM == 0 {
		return "none"
	}
	if t.tailPM%10 == 0 {
		return fmt.Sprintf("p%d", t.tailPM/10)
	}
	return fmt.Sprintf("p%.1f", float64(t.tailPM)/10)
}

// tailNote names the sample's tail percentile and its value, or says
// that the sample is too small for one.
func (t timing) tailNote() string {
	if t.tailPM == 0 {
		return fmt.Sprintf("n=%d: too few for a percentile with 10 beyond", t.n)
	}
	return fmt.Sprintf("%s %.0f", t.tailName(), t.tail)
}

// regressed reports whether change is worse than parent, in the metric's
// direction, by more than bound, a share of the parent's value.
func regressed(better string, bound, parent, change float64) bool {
	worse := change - parent
	if better == "higher" {
		worse = -worse
	}
	return worse > (bound+1e-12)*math.Abs(parent)
}

// quartiles returns the three cut points of values the way Python's
// statistics.quantiles(values, n=4) computes them (its default
// "exclusive" method), so spreads printed here match a Python check of
// the same runs. It needs at least two values.
func quartiles(values []float64) (q1, q2, q3 float64) {
	s := sortedCopy(values)
	ld := len(s)
	if ld < 2 {
		if ld == 1 {
			return s[0], s[0], s[0]
		}
		return math.NaN(), math.NaN(), math.NaN()
	}
	const n = 4
	m := ld + 1
	var out [n - 1]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		j = max(1, min(j, ld-1))
		delta := float64(i*m - j*n)
		out[i-1] = (s[j-1]*(n-delta) + s[j]*delta) / n
	}
	return out[0], out[1], out[2]
}

// spread is the distance between the first and third quartile as a share
// of the median, the run-to-run stability measure the bounds are held
// against.
func spread(values []float64) float64 {
	q1, q2, q3 := quartiles(values)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(q2)
}
