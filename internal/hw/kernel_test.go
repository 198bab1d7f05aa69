package hw

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

func TestNewQuantizerSizing(t *testing.T) {
	cases := []struct {
		maxDim2 float64
		nsyms   int
		ok      bool
		cap     int32
	}{
		{10, 130, true, DimCapMax},
		{10, 0, true, DimCapMax},
		{0, 0, true, DimCapMax},
		{10, accumBudget / (2 * DimCapMax) * 4, true, DimCapMax / 4},
		{10, accumBudget / (2 * DimCapMin) * 2, false, 0}, // cap would fall below DimCapMin
		{math.Inf(1), 10, false, 0},
		{math.NaN(), 10, false, 0},
		{10, -1, false, 0},
	}
	for _, c := range cases {
		q, ok := NewQuantizer(c.maxDim2, c.nsyms)
		if ok != c.ok {
			t.Fatalf("NewQuantizer(%v, %d): ok = %v, want %v", c.maxDim2, c.nsyms, ok, c.ok)
		}
		if ok && q.Cap() != c.cap {
			t.Fatalf("NewQuantizer(%v, %d): cap = %d, want %d", c.maxDim2, c.nsyms, q.Cap(), c.cap)
		}
	}
	// The overflow invariant the hot loop relies on: a full accumulation
	// cannot exceed the budget.
	q, ok := NewQuantizer(5, 1<<16)
	if !ok {
		t.Fatal("quantizer for 2^16 symbols should exist")
	}
	if int64(1<<16)*2*int64(q.Cap()) > accumBudget {
		t.Fatalf("cap %d breaks the accumulation budget", q.Cap())
	}
}

func TestQuantizeRoundTripAndSaturation(t *testing.T) {
	const maxDim2 = 20.0
	q, ok := NewQuantizer(maxDim2, 130)
	if !ok {
		t.Fatal("NewQuantizer failed")
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 10000; i++ {
		v := rng.Float64() * maxDim2
		c := q.Quantize(v)
		if c < 0 || c > q.Cap() {
			t.Fatalf("Quantize(%v) = %d outside [0, %d]", v, c, q.Cap())
		}
		if err := math.Abs(q.Dequantize(c) - v); err > q.Step()/2+1e-12 {
			t.Fatalf("round-trip error %v for %v exceeds half a step (%v)", err, v, q.Step()/2)
		}
	}
	for _, v := range []float64{math.NaN(), math.Inf(1), math.MaxFloat64, 2 * maxDim2, maxDim2 * 1e10} {
		if c := q.Quantize(v); c != q.Cap() {
			t.Fatalf("Quantize(%v) = %d, want saturation at %d", v, c, q.Cap())
		}
	}
	if c := q.Quantize(math.Inf(-1)); c != 0 {
		t.Fatalf("Quantize(-Inf) = %d, want 0", c)
	}
	if c := q.Quantize(0); c != 0 {
		t.Fatalf("Quantize(0) = %d, want 0", c)
	}
}

// Cost ordering of well-separated values survives quantization: if two
// in-range costs differ by more than one step, their quantized order
// matches, and any saturated value ranks at least as high as any
// in-range one.
func TestQuantizeOrderPreserved(t *testing.T) {
	const maxDim2 = 12.5
	q, ok := NewQuantizer(maxDim2, 64)
	if !ok {
		t.Fatal("NewQuantizer failed")
	}
	rng := rand.New(rand.NewSource(2))
	vals := make([]float64, 500)
	for i := range vals {
		if i%10 == 0 {
			vals[i] = maxDim2 * (1 + rng.Float64()*1e6) // saturating
		} else {
			vals[i] = rng.Float64() * maxDim2
		}
	}
	for i, a := range vals {
		for _, b := range vals[i+1:] {
			qa, qb := q.Quantize(a), q.Quantize(b)
			switch {
			case a < b && b-a > q.Step() && b < maxDim2:
				if qa >= qb {
					t.Fatalf("order lost: %v < %v but %d >= %d", a, b, qa, qb)
				}
			case b < a && a-b > q.Step() && a < maxDim2:
				if qb >= qa {
					t.Fatalf("order lost: %v < %v but %d >= %d", b, a, qb, qa)
				}
			}
		}
	}
}

func TestBuildDistTables(t *testing.T) {
	q, ok := NewQuantizer(25, 10)
	if !ok {
		t.Fatal("NewQuantizer failed")
	}
	x := []float64{-1.5, -0.5, 0.5, 1.5}
	dI := make([]int32, len(x))
	dQ := make([]int32, len(x))
	q.BuildDistTables(0.7, -2.0, x, dI, dQ)
	for v, xv := range x {
		wi := q.Quantize((0.7 - xv) * (0.7 - xv))
		wq := q.Quantize((-2.0 - xv) * (-2.0 - xv))
		if dI[v] != wi || dQ[v] != wq {
			t.Fatalf("entry %d: got (%d,%d), want (%d,%d)", v, dI[v], dQ[v], wi, wq)
		}
	}
	// Non-finite received values poison every entry to the cap.
	for _, y := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 1e300} {
		q.BuildDistTables(y, y, x, dI, dQ)
		for v := range x {
			if dI[v] != q.Cap() || dQ[v] != q.Cap() {
				t.Fatalf("y=%v entry %d: got (%d,%d), want saturation", y, v, dI[v], dQ[v])
			}
		}
	}
}

func TestAccumulateCompact(t *testing.T) {
	const cbits = 3
	const L = 1 << cbits
	cmask := uint32(L - 1)
	rng := rand.New(rand.NewSource(3))
	dI := make([]int32, L)
	dQ := make([]int32, L)
	for i := range dI {
		dI[i] = rng.Int31n(1000)
		dQ[i] = rng.Int31n(1000)
	}
	type cand struct {
		key uint64
		pre uint32
	}
	for _, tau := range []int32{math.MaxInt32, 1 << 19, 1000, 0} {
		n := 257
		keys := make([]uint64, n)
		pre := make([]uint32, n)
		words := make([]uint32, n)
		var want []cand
		for j := range keys {
			cost := rng.Int31n(1 << 19)
			org := rng.Uint32() // the full origin half, so a carry into the cost would show
			keys[j] = uint64(cost)<<32 | uint64(org)
			pre[j] = rng.Uint32()
			words[j] = rng.Uint32()
			c := cost + dI[words[j]&cmask] + dQ[words[j]>>cbits&cmask]
			if c < tau {
				want = append(want, cand{uint64(c)<<32 | uint64(org), pre[j]})
			}
		}
		kept := AccumulateCompact(tau, keys, pre, words, dI, dQ, cmask, cbits)
		if kept != len(want) {
			t.Fatalf("tau=%d: kept %d, want %d", tau, kept, len(want))
		}
		for i, w := range want {
			got := cand{keys[i], pre[i]}
			if got != w {
				t.Fatalf("tau=%d survivor %d = %+v, want %+v (encounter order, aligned arrays)",
					tau, i, got, w)
			}
		}
	}
}

func TestSelectKeys(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 100; trial++ {
		n := 1 + rng.Intn(500)
		k := 1 + rng.Intn(n)
		keys := make([]uint64, n)
		for i := range keys {
			// Heavily tied costs in the high word, unique origins below —
			// the decoder's packing.
			keys[i] = uint64(rng.Int31n(64))<<32 | uint64(i)
		}
		sorted := slices.Clone(keys)
		slices.Sort(sorted)
		pivot := SelectKeys(keys, k)
		if pivot != sorted[k-1] {
			t.Fatalf("pivot = %#x, want %#x (n=%d k=%d)", pivot, sorted[k-1], n, k)
		}
		prefix := slices.Clone(keys[:k])
		slices.Sort(prefix)
		if !slices.Equal(prefix, sorted[:k]) {
			t.Fatalf("prefix is not the k smallest keys (n=%d k=%d)", n, k)
		}
	}
}

// TestSortKeys: SortKeys equals slices.Sort on decoder-packed keys, on
// already-ordered and reversed input (the median-of-three cases) and on
// duplicate keys, which the decoder never produces but which must not
// break it.
func TestSortKeys(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(600)
		keys := make([]uint64, n)
		for i := range keys {
			keys[i] = uint64(rng.Int31n(64))<<32 | uint64(i)
		}
		switch trial % 4 {
		case 1:
			slices.Sort(keys)
		case 2:
			slices.Sort(keys)
			slices.Reverse(keys)
		case 3:
			for i := range keys {
				keys[i] >>= 32 // cost only: heavy duplicates
			}
		}
		want := slices.Clone(keys)
		slices.Sort(want)
		k := 1 + rng.Intn(n+1)
		if k <= n {
			sel := slices.Clone(keys)
			if pivot := SelectKeys(sel, k); pivot != want[k-1] {
				t.Fatalf("trial %d: SelectKeys pivot = %#x, want %#x (n=%d k=%d)", trial, pivot, want[k-1], n, k)
			}
		}
		SortKeys(keys)
		if !slices.Equal(keys, want) {
			t.Fatalf("trial %d: SortKeys differs from slices.Sort (n=%d)", trial, n)
		}
	}
}

// The selected set is a pure function of the key multiset — block
// boundaries and encounter order cannot change it, which is what makes
// the quantized decode deterministic.
func TestSelectKeysOrderInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	base := make([]uint64, 300)
	for i := range base {
		base[i] = uint64(rng.Int31n(32))<<32 | uint64(i)
	}
	const k = 64
	ref := slices.Clone(base)
	SelectKeys(ref, k)
	want := slices.Clone(ref[:k])
	slices.Sort(want)
	for trial := 0; trial < 20; trial++ {
		shuf := slices.Clone(base)
		rng.Shuffle(len(shuf), func(i, j int) { shuf[i], shuf[j] = shuf[j], shuf[i] })
		SelectKeys(shuf, k)
		got := slices.Clone(shuf[:k])
		slices.Sort(got)
		if !slices.Equal(got, want) {
			t.Fatalf("selected set depends on encounter order (trial %d)", trial)
		}
	}
}

func benchKeys(n int) []uint64 {
	rng := rand.New(rand.NewSource(7))
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = uint64(rng.Int31n(1<<20))<<32 | uint64(i)
	}
	return keys
}

func BenchmarkSelectKeys(b *testing.B) {
	src := benchKeys(512)
	keys := make([]uint64, len(src))
	for i := 0; i < b.N; i++ {
		copy(keys, src)
		SelectKeys(keys, 256)
	}
}

func BenchmarkSortKeys(b *testing.B) {
	src := benchKeys(256)
	keys := make([]uint64, len(src))
	for i := 0; i < b.N; i++ {
		copy(keys, src)
		SortKeys(keys)
	}
}
