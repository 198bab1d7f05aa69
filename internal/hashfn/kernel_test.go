package hashfn

import (
	"math/rand"
	"testing"
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
