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

// FuzzBuildDistTables holds the table kernel (SSE2 on amd64) to
// Quantize entry by entry: received values that are ±Inf, NaN, huge or
// subnormal, quantizers sized for no symbols, one symbol or enough
// symbols to pull the cap to DimCapMin, and every table length from 1
// to 65, odd lengths included. A slot past the table must stay untouched.
func FuzzBuildDistTables(f *testing.F) {
	const big = accumBudget / (2 * DimCapMin) // the most symbols NewQuantizer accepts
	for _, y := range []float64{0.7, -2, math.Inf(1), math.Inf(-1), math.NaN(), 1e300, -1e300, 5e-324, -2.2e-308} {
		for _, nsyms := range []uint32{0, 1, big} {
			for _, n := range []uint8{0, 5, 63, 64} {
				f.Add(y, 0.3, 25.0, nsyms, n, int64(n))
			}
			f.Add(-0.3, y, 1e-300, nsyms, uint8(2), int64(2))
			f.Add(y, 1.0, 5e-324, nsyms, uint8(3), int64(3))
		}
	}
	f.Fuzz(func(t *testing.T, yI, yQ, maxDim2 float64, nsyms uint32, n uint8, seed int64) {
		q, ok := NewQuantizer(maxDim2, int(nsyms))
		if !ok {
			return
		}
		L := int(n)%65 + 1
		rng := rand.New(rand.NewSource(seed))
		x := make([]float64, L)
		for v := range x {
			switch rng.Intn(8) {
			case 0:
				x[v] = []float64{0, 1e300, -1e300, 5e-324, math.Inf(1), math.NaN()}[rng.Intn(6)]
			default:
				x[v] = rng.NormFloat64() * 4
			}
		}
		const sentinel = -7
		dI := make([]int32, L+1)
		dQ := make([]int32, L+1)
		dI[L], dQ[L] = sentinel, sentinel
		q.BuildDistTables(yI, yQ, x, dI, dQ)
		for v, xv := range x {
			di, dq := yI-xv, yQ-xv
			if wi, wq := q.Quantize(di*di), q.Quantize(dq*dq); dI[v] != wi || dQ[v] != wq {
				t.Fatalf("y=(%v,%v) x[%d]=%v of %d, scale %v cap %d: got (%d,%d), want (%d,%d)",
					yI, yQ, v, xv, L, q.scale, q.cap, dI[v], dQ[v], wi, wq)
			}
		}
		if dI[L] != sentinel || dQ[L] != sentinel {
			t.Fatalf("%d-entry tables wrote past their end: (%d,%d)", L, dI[L], dQ[L])
		}
	})
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
	// k = len(keys) selects every key; the pivot is the largest.
	for n := 1; n <= 40; n++ {
		keys := benchKeys(n)
		if pivot := SelectKeys(keys, n); pivot != slices.Max(keys) {
			t.Fatalf("n=k=%d: pivot = %#x, want the largest key %#x", n, pivot, slices.Max(keys))
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

// TestSortKeysNetwork: the 16-key network sorts every 0-1 input, which
// by the 0-1 principle makes it a sorting network for any keys;
// sortShortKeys, which runs it in place, over a padded copy or not at
// all depending on the length, sorts every 0-1 input at every length
// from 0 to 16; and it matches slices.Sort on random decoder-packed
// keys, on duplicates and on keys equal to or just below its
// math.MaxUint64 pad.
func TestSortKeysNetwork(t *testing.T) {
	buf := make([]uint64, sortCutoff)
	for n := 0; n <= sortCutoff; n++ {
		for bitsIn := 0; bitsIn < 1<<n; bitsIn++ {
			ones := 0
			for i := range buf {
				buf[i] = uint64(bitsIn >> i & 1)
				ones += int(buf[i])
			}
			if n == sortCutoff {
				net := [sortCutoff]uint64(buf)
				sortKeys16(&net)
				if !isZeroOne(net[:], ones) {
					t.Fatalf("network, input %#x: output %v", bitsIn, net)
				}
			}
			keys := buf[:n]
			sortShortKeys(keys)
			if !isZeroOne(keys, ones) {
				t.Fatalf("n=%d input %#x: output %v", n, bitsIn, keys)
			}
		}
	}
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 20000; trial++ {
		n := rng.Intn(sortCutoff + 1)
		if trial%2 == 0 {
			n = sortCutoff
		}
		keys := make([]uint64, n)
		for i := range keys {
			switch trial % 3 {
			case 0:
				keys[i] = uint64(rng.Int31n(64))<<32 | uint64(rng.Uint32())
			case 1:
				keys[i] = uint64(rng.Intn(4)) // heavy duplicates
			default:
				keys[i] = math.MaxUint64 - uint64(rng.Intn(3))
			}
		}
		want := slices.Clone(keys)
		slices.Sort(want)
		sortShortKeys(keys)
		if !slices.Equal(keys, want) {
			t.Fatalf("trial %d: %d keys sorted to %v, want %v", trial, n, keys, want)
		}
	}
}

// isZeroOne reports whether keys is len(keys)-ones zeros then ones ones.
func isZeroOne(keys []uint64, ones int) bool {
	for i, k := range keys {
		want := uint64(0)
		if i >= len(keys)-ones {
			want = 1
		}
		if k != want {
			return false
		}
	}
	return true
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

// BenchmarkSortKeys16 sorts full 16-key ranges, the tail of every
// SelectKeys and SortKeys and the whole survivor sort of a B=16 step.
func BenchmarkSortKeys16(b *testing.B) {
	src := benchKeys(1024)
	keys := make([]uint64, len(src))
	for b.Loop() {
		copy(keys, src)
		for i := 0; i < len(keys); i += sortCutoff {
			sortKeys16((*[sortCutoff]uint64)(keys[i : i+sortCutoff]))
		}
	}
}

// BenchmarkBuildDistTables builds one symbol's pair of 64-entry tables
// (C=6), as a decode does for every stored symbol of every spine step.
func BenchmarkBuildDistTables(b *testing.B) {
	q, _ := NewQuantizer(40, 400)
	x := make([]float64, 64)
	for v := range x {
		x[v] = float64(v)/16 - 2
	}
	dI := make([]int32, len(x))
	dQ := make([]int32, len(x))
	for b.Loop() {
		q.BuildDistTables(0.7, -1.3, x, dI, dQ)
	}
}
