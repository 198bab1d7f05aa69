package hashfn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"spinal/internal/hw"
)

// checkFinishWords requires FinishWords over prefixes to equal the
// per-element scalar WordFinish, and to leave out beyond the batch
// untouched.
func checkFinishWords(t *testing.T, prefixes []uint32, tv uint32) {
	t.Helper()
	const guard = 0xdeadbeef
	out := make([]uint32, len(prefixes)+1)
	out[len(prefixes)] = guard
	FinishWords(prefixes, tv, out)
	for j, p := range prefixes {
		if want := WordFinish(p, tv); out[j] != want {
			t.Fatalf("n=%d t=%#x: FinishWords[%d] = %#x, WordFinish = %#x", len(prefixes), tv, j, out[j], want)
		}
	}
	if out[len(prefixes)] != guard {
		t.Fatalf("n=%d: FinishWords wrote past the batch", len(prefixes))
	}
}

// checkChildrenPrefixes requires ChildrenPrefixes to equal the scalar
// Sum and Prefix for every child of state, and to leave both planes
// beyond the 2^kb children untouched.
func checkChildrenPrefixes(t *testing.T, o OneAtATime, state uint32, kb int) {
	t.Helper()
	const guard = 0xdeadbeef
	fan := 1 << uint(kb)
	cs := make([]uint32, fan+1)
	pre := make([]uint32, fan+1)
	cs[fan], pre[fan] = guard, guard
	o.ChildrenPrefixes(state, kb, cs[:fan], pre[:fan])
	for m := 0; m < fan; m++ {
		want := o.Sum(state, uint32(m), kb)
		if cs[m] != want {
			t.Fatalf("seed=%#x state=%#x kb=%d: child[%d] = %#x, Sum = %#x", o.Seed, state, kb, m, cs[m], want)
		}
		if pre[m] != o.Prefix(want) {
			t.Fatalf("seed=%#x state=%#x kb=%d: prefix[%d] = %#x, Prefix = %#x", o.Seed, state, kb, m, pre[m], o.Prefix(want))
		}
	}
	if cs[fan] != guard || pre[fan] != guard {
		t.Fatalf("kb=%d: ChildrenPrefixes wrote past the children", kb)
	}
}

// TestHashKernelsMatchScalar holds the batched kernels (SSE2 on amd64,
// the portable loops elsewhere) to the scalar reference on every batch
// length mod 4 — both around zero and around the 256-candidate block —
// and on every kb the decoder uses.
func TestHashKernelsMatchScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	lengths := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 255, 256, 257}
	for _, tv := range []uint32{0, 0xffffffff, 0x01020304, rng.Uint32()} {
		for _, n := range lengths {
			prefixes := make([]uint32, n)
			for i := range prefixes {
				prefixes[i] = rng.Uint32()
			}
			checkFinishWords(t, prefixes, tv)
		}
	}
	for _, o := range []OneAtATime{{}, {Seed: 0x9e3779b9}, {Seed: 0xffffffff}} {
		for kb := 1; kb <= 8; kb++ {
			for _, state := range []uint32{0, 0xffffffff, rng.Uint32()} {
				checkChildrenPrefixes(t, o, state, kb)
			}
		}
	}
}

// FuzzHashKernels: for any prefixes, t, state, hash seed and kb, the
// batched kernels equal the scalar WordFinish / Sum+Prefix.
func FuzzHashKernels(f *testing.F) {
	f.Add([]byte{}, uint32(0), uint32(0), uint32(0), uint8(1))
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21},
		uint32(0xdeadbeef), uint32(42), uint32(0x9e3779b9), uint8(4))
	f.Fuzz(func(t *testing.T, raw []byte, tv, state, seed uint32, kb uint8) {
		prefixes := make([]uint32, len(raw)/4)
		for i := range prefixes {
			prefixes[i] = uint32(raw[4*i]) | uint32(raw[4*i+1])<<8 | uint32(raw[4*i+2])<<16 | uint32(raw[4*i+3])<<24
		}
		checkFinishWords(t, prefixes, tv)
		checkChildrenPrefixes(t, OneAtATime{Seed: seed}, state, 1+int(kb%8))
	})
}

// checkExpandScore requires ExpandScore (the fused SSE2 pass on amd64)
// to equal expandScoreGo, the composition ChildrenPrefixes →
// FinishWords → hw.AccumulateCompact parent by parent, on every output:
// all child states, the survivor count, and each survivor's key and
// prefix in order. Nothing may be written past the block's children.
func checkExpandScore(t *testing.T, o OneAtATime, states []uint32, costs []int32, org0 uint32, kb int, tv uint32, tau int32, dI, dQ []int32, cbits uint) {
	t.Helper()
	const guard = 0xdeadbeef
	nc := len(states) << uint(kb)
	cmask := uint32(1)<<cbits - 1
	cs, keys, pre := make([]uint32, nc+1), make([]uint64, nc+1), make([]uint32, nc+1)
	wcs, wkeys, wpre := make([]uint32, nc+1), make([]uint64, nc+1), make([]uint32, nc+1)
	cs[nc], keys[nc], pre[nc] = guard, guard, guard
	n := o.ExpandScore(states, costs, org0, kb, tv, tau, dI, dQ, cmask, cbits, cs[:nc], keys, pre)
	wn := expandScoreGo(o, states, costs, org0, kb, tv, tau, dI, dQ, cmask, uint32(cbits), wcs[:nc], wkeys, wpre)
	where := func() string {
		return fmt.Sprintf("seed=%#x states=%#x costs=%d org0=%#x kb=%d t=%#x tau=%d C=%d",
			o.Seed, states, costs, org0, kb, tv, tau, cbits)
	}
	if n != wn {
		t.Fatalf("%s: %d survivors, composition keeps %d", where(), n, wn)
	}
	for m := 0; m < nc; m++ {
		if cs[m] != wcs[m] {
			t.Fatalf("%s: child[%d] = %#x, composition %#x", where(), m, cs[m], wcs[m])
		}
	}
	for j := 0; j < n; j++ {
		if keys[j] != wkeys[j] || pre[j] != wpre[j] {
			t.Fatalf("%s: survivor %d = (%#x, %#x), composition (%#x, %#x)", where(), j, keys[j], pre[j], wkeys[j], wpre[j])
		}
	}
	if cs[nc] != guard || keys[nc] != guard || pre[nc] != guard {
		t.Fatalf("%s: ExpandScore wrote past the block", where())
	}
}

// expandBlock draws np parents with random states and ascending costs
// below 2^29, and an origin base for them with the low kb bits clear.
func expandBlock(rng *rand.Rand, np, kb int) (states []uint32, costs []int32, org0 uint32) {
	states, costs = make([]uint32, np), make([]int32, np)
	c := rng.Int31n(1 << 28)
	for i := range states {
		states[i] = rng.Uint32()
		costs[i] = c
		c += rng.Int31n(2 * hw.DimCapMax)
	}
	return states, costs, rng.Uint32() &^ (1<<uint(kb) - 1)
}

// expandTables returns distance tables of 2^cbits entries each: random
// below the per-dimension cap (mode 0), saturated at it (mode 1), or
// all zero, as a punctured step passes them (mode 2).
func expandTables(rng *rand.Rand, cbits uint, mode int) (dI, dQ []int32) {
	dI, dQ = make([]int32, 1<<cbits), make([]int32, 1<<cbits)
	for i := range dI {
		switch mode {
		case 0:
			dI[i], dQ[i] = rng.Int31n(hw.DimCapMax), rng.Int31n(hw.DimCapMax)
		case 1:
			dI[i], dQ[i] = hw.DimCapMax, hw.DimCapMax
		}
	}
	return dI, dQ
}

// TestExpandScoreMatchesComposition holds the fused kernel to the
// composition of the passes it replaces on every kb in 1..8 (fans of 2
// and 4 take only the one-lane tail), blocks of one to five parents,
// tau at MaxInt32, 0 and mid-range (cutting the block and its children
// short), and random, saturated and all-zero tables.
func TestExpandScoreMatchesComposition(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for _, cbits := range []uint{1, 6, 10} {
		for mode := 0; mode < 3; mode++ {
			dI, dQ := expandTables(rng, cbits, mode)
			for _, o := range []OneAtATime{{}, {Seed: 0x9e3779b9}} {
				for kb := 1; kb <= 8; kb++ {
					for np := 1; np <= 5; np++ {
						states, costs, org0 := expandBlock(rng, np, kb)
						mid := costs[np/2] + hw.DimCapMax
						for _, tau := range []int32{math.MaxInt32, 0, costs[0], mid, costs[np-1] + 2*hw.DimCapMax} {
							checkExpandScore(t, o, states, costs, org0, kb, rng.Uint32(), tau, dI, dQ, cbits)
						}
					}
				}
			}
		}
	}
}

// FuzzExpandScore: for any block of parents, hash seed, symbol index,
// kb, tau and tables, the fused kernel equals the composition.
func FuzzExpandScore(f *testing.F) {
	f.Add(uint32(0), int64(0), uint32(0), uint8(3), uint8(1), int32(math.MaxInt32), int64(1), uint8(0))
	f.Add(uint32(0x9e3779b9), int64(7), uint32(7), uint8(3), uint8(4), int32(1<<28), int64(2), uint8(1))
	f.Fuzz(func(t *testing.T, seed uint32, block int64, tv uint32, kb, np uint8, tau int32, tables int64, mode uint8) {
		k := 1 + int(kb%8)
		states, costs, org0 := expandBlock(rand.New(rand.NewSource(block)), 1+int(np%6), k)
		cbits := uint(1 + mode/3%10)
		dI, dQ := expandTables(rand.New(rand.NewSource(tables)), cbits, int(mode%3))
		if tau < 0 {
			tau = -(tau + 1)
		}
		checkExpandScore(t, OneAtATime{Seed: seed}, states, costs, org0, k, tv, tau, dI, dQ, cbits)
	})
}

func BenchmarkFinishWords(b *testing.B) {
	prefixes := make([]uint32, 256)
	for i := range prefixes {
		prefixes[i] = uint32(i) * 2654435761
	}
	out := make([]uint32, len(prefixes))
	b.SetBytes(int64(4 * len(prefixes)))
	for i := 0; i < b.N; i++ {
		FinishWords(prefixes, uint32(i), out)
	}
}

func BenchmarkChildrenPrefixes(b *testing.B) {
	o := OneAtATime{Seed: 7}
	cs := make([]uint32, 16)
	pre := make([]uint32, 16)
	for i := 0; i < b.N; i++ {
		o.ChildrenPrefixes(uint32(i), 4, cs, pre)
	}
}

// BenchmarkExpandScore expands and scores one parent at the paper's
// k=4, c=6 point with every child surviving.
func BenchmarkExpandScore(b *testing.B) {
	o := OneAtATime{Seed: 7}
	dI, dQ := expandTables(rand.New(rand.NewSource(1)), 6, 0)
	states, costs := []uint32{0}, []int32{0}
	cs := make([]uint32, 16)
	keys := make([]uint64, 16)
	pre := make([]uint32, 16)
	for i := 0; i < b.N; i++ {
		states[0] = uint32(i)
		o.ExpandScore(states, costs, 0, 4, 3, math.MaxInt32, dI, dQ, 63, 6, cs, keys, pre)
	}
}
