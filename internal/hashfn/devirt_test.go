package hashfn

import (
	"math/rand"
	"testing"
)

func devirtHashes() []Hash {
	return []Hash{
		OneAtATime{}, OneAtATime{Seed: 0xabad1dea},
		Lookup3{}, Lookup3{Seed: 77},
		Salsa20{}, Salsa20{Seed: 12345},
	}
}

// TestCompileMatchesSum: the devirtualized SumFunc is the interface call.
func TestCompileMatchesSum(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, h := range devirtHashes() {
		sum := Compile(h)
		for i := 0; i < 200; i++ {
			state, m := rng.Uint32(), rng.Uint32()
			k := 1 + rng.Intn(32)
			if got, want := sum(state, m, k), h.Sum(state, m, k); got != want {
				t.Fatalf("%s: Compile(%#x,%#x,%d) = %#x, Sum = %#x", h.Name(), state, m, k, got, want)
			}
		}
	}
}

// TestWordsMatchesWord: the compiled Batch's FinishWords, fed the
// prefixes its ChildrenPrefixes derives, equals per-index Word calls on
// the child states.
func TestWordsMatchesWord(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, h := range devirtHashes() {
		checkBatchWords(t, h, rng)
	}
}

// checkBatchWords expands random parents through h's Batch and holds
// every finished word to RNG{h}.Word of its child.
func checkBatchWords(t *testing.T, h Hash, rng *rand.Rand) {
	t.Helper()
	r := RNG{H: h}
	b := CompileBatch(h)
	for trial := 0; trial < 20; trial++ {
		kb := 1 + rng.Intn(8)
		cs := make([]uint32, 1<<uint(kb))
		pre := make([]uint32, len(cs))
		out := make([]uint32, len(cs))
		b.ChildrenPrefixes(rng.Uint32(), kb, cs, pre)
		for i := 0; i < 3; i++ {
			tv := rng.Uint32()
			b.FinishWords(pre, tv, out)
			for m, s := range cs {
				if want := r.Word(s, tv); out[m] != want {
					t.Fatalf("%s: FinishWords[%d] = %#x, Word = %#x", h.Name(), m, out[m], want)
				}
			}
		}
	}
}

// TestChildrenMatchesSum: the compiled Batch's ChildrenPrefixes derives
// Sum over the message values 0..2^kb-1, writing nothing past them.
func TestChildrenMatchesSum(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, h := range devirtHashes() {
		checkBatchChildren(t, h, rng)
	}
}

// checkBatchChildren holds h's Batch.ChildrenPrefixes to Sum for every
// kb, with a sentinel past the children.
func checkBatchChildren(t *testing.T, h Hash, rng *rand.Rand) {
	t.Helper()
	b := CompileBatch(h)
	for kb := 1; kb <= 8; kb++ {
		state := rng.Uint32()
		n := 1 << uint(kb)
		cs := make([]uint32, n+1)
		pre := make([]uint32, n+1)
		cs[n], pre[n] = 0xfeedface, 0xfeedface
		b.ChildrenPrefixes(state, kb, cs[:n], pre)
		for m := 0; m < n; m++ {
			if want := h.Sum(state, uint32(m), kb); cs[m] != want {
				t.Fatalf("%s kb=%d: children[%d] = %#x, Sum = %#x", h.Name(), kb, m, cs[m], want)
			}
		}
		if cs[n] != 0xfeedface || pre[n] != 0xfeedface {
			t.Fatalf("%s kb=%d: ChildrenPrefixes wrote past the children", h.Name(), kb)
		}
	}
}

// TestPrefixComposition: Prefix/WordFinish, FinishWords, Prefixes and
// ChildrenPrefixes all compose to the interface-path results.
func TestPrefixComposition(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, o := range []OneAtATime{{}, {Seed: 0x5eed}} {
		r := RNG{H: o}
		for trial := 0; trial < 50; trial++ {
			seed, tv := rng.Uint32(), rng.Uint32()
			if got, want := WordFinish(o.Prefix(seed), tv), r.Word(seed, tv); got != want {
				t.Fatalf("WordFinish(Prefix) = %#x, Word = %#x", got, want)
			}
		}

		seeds := make([]uint32, 33)
		for i := range seeds {
			seeds[i] = rng.Uint32()
		}
		pre := make([]uint32, len(seeds))
		for i, s := range seeds {
			pre[i] = o.Prefix(s)
		}
		tv := rng.Uint32()
		out := make([]uint32, len(seeds))
		FinishWords(pre, tv, out)
		for i, s := range seeds {
			if out[i] != r.Word(s, tv) {
				t.Fatalf("FinishWords[%d] mismatch", i)
			}
		}

		for kb := 1; kb <= 8; kb++ {
			state := rng.Uint32()
			cs := make([]uint32, 1<<uint(kb))
			cp := make([]uint32, 1<<uint(kb))
			o.ChildrenPrefixes(state, kb, cs, cp)
			for m := range cs {
				if want := o.Sum(state, uint32(m), kb); cs[m] != want {
					t.Fatalf("ChildrenPrefixes state[%d] = %#x, Sum = %#x", m, cs[m], want)
				}
				if cp[m] != o.Prefix(cs[m]) {
					t.Fatalf("ChildrenPrefixes prefix[%d] mismatch", m)
				}
			}
		}
	}
}

// customHash exercises the fallback paths of Compile and CompileBatch.
type customHash struct{}

func (customHash) Name() string { return "custom" }
func (customHash) Sum(state, m uint32, k int) uint32 {
	return state*2654435761 + m&maskBits(k) + uint32(k)
}

// TestCompileFallbacks: unknown Hash implementations route through the
// interface and still agree with direct Sum and Word calls.
func TestCompileFallbacks(t *testing.T) {
	h := customHash{}
	if Compile(h)(1, 2, 3) != h.Sum(1, 2, 3) {
		t.Fatal("fallback Compile mismatch")
	}
	rng := rand.New(rand.NewSource(5))
	checkBatchChildren(t, h, rng)
	checkBatchWords(t, h, rng)
}
