// Package hashfn provides the hash functions used by spinal codes to build
// the spine and to generate pseudo-random symbol bits.
//
// The paper (§3.2, §7.1) requires a hash drawn from a pairwise-independent
// family, mapping a ν-bit state plus k message bits to a new ν-bit state,
// and an RNG that maps a ν-bit seed and an index to a c-bit output. The
// production choice is Jenkins' one-at-a-time hash; lookup3 and the Salsa20
// core are provided so the §7.1 comparison (no discernible performance
// difference between the three) can be reproduced.
//
// All functions here are deterministic: the encoder and decoder must agree
// on the hash, the seed, and the initial state.
package hashfn

import "spinal/internal/hw"

// Hash maps a 32-bit spine state and up to 32 message bits (the low k bits
// of m) to a new 32-bit state. Implementations must be deterministic.
type Hash interface {
	// Sum computes the next spine value from the previous state and k
	// message bits. k is the number of significant low bits in m and must
	// be in [1, 32].
	Sum(state uint32, m uint32, k int) uint32
	// Name reports a short identifier used in experiment output.
	Name() string
}

// OneAtATime is Jenkins' one-at-a-time hash, the implementation choice of
// the paper (§7.1: 6 XORs, 15 shifts, 10 additions per application). The
// zero value uses seed 0; a non-zero seed plays the role of the paper's
// pseudo-random s0 scrambler, selecting a member of the hash family.
type OneAtATime struct {
	// Seed perturbs the hash; encoder and decoder must share it.
	Seed uint32
}

// Name implements Hash.
func (OneAtATime) Name() string { return "one-at-a-time" }

// Sum implements Hash. It feeds the four state bytes and ⌈k/8⌉ message
// bytes through the one-at-a-time mixing function.
func (o OneAtATime) Sum(state uint32, m uint32, k int) uint32 {
	h := o.Seed
	h = oaatByte(h, byte(state))
	h = oaatByte(h, byte(state>>8))
	h = oaatByte(h, byte(state>>16))
	h = oaatByte(h, byte(state>>24))
	for ; k > 0; k -= 8 {
		h = oaatByte(h, byte(m))
		m >>= 8
	}
	h += h << 3
	h ^= h >> 11
	h += h << 15
	return h
}

func oaatByte(h uint32, b byte) uint32 {
	h += uint32(b)
	h += h << 10
	h ^= h >> 6
	return h
}

// AsOneAtATime reports whether h is the OneAtATime hash (by value or by
// pointer), returning the concrete value. CompileBatch uses it to pick
// the SSE2 kernels, and the decoder to test fixed-point eligibility.
func AsOneAtATime(h Hash) (OneAtATime, bool) {
	switch c := h.(type) {
	case OneAtATime:
		return c, true
	case *OneAtATime:
		return *c, true
	}
	return OneAtATime{}, false
}

// Lookup3 is Jenkins' lookup3 hash (hashword variant over 32-bit words).
type Lookup3 struct {
	Seed uint32
}

// Name implements Hash.
func (Lookup3) Name() string { return "lookup3" }

// Sum implements Hash. The state and message bits form a two-word input to
// hashword.
func (l Lookup3) Sum(state uint32, m uint32, k int) uint32 {
	// Standard lookup3 initialization for a 2-word input.
	a := uint32(0xdeadbeef) + 2<<2 + l.Seed
	b := a
	c := a
	a += state
	b += m & maskBits(k)
	return lookup3Final(a, b, c)
}

func maskBits(k int) uint32 {
	if k >= 32 {
		return ^uint32(0)
	}
	return (1 << uint(k)) - 1
}

func rot32(x uint32, n uint) uint32 { return x<<n | x>>(32-n) }

func lookup3Final(a, b, c uint32) uint32 {
	c ^= b
	c -= rot32(b, 14)
	a ^= c
	a -= rot32(c, 11)
	b ^= a
	b -= rot32(a, 25)
	c ^= b
	c -= rot32(b, 16)
	a ^= c
	a -= rot32(c, 4)
	b ^= a
	b -= rot32(a, 14)
	c ^= b
	c -= rot32(b, 24)
	return c
}

// Salsa20 uses the Salsa20/20 core as a hash, the cryptographic-strength
// reference the paper started with (§7.1). It is far more expensive than
// OneAtATime but has demonstrated mixing properties.
type Salsa20 struct {
	Seed uint32
}

// Name implements Hash.
func (Salsa20) Name() string { return "salsa20" }

// Sum implements Hash. The 16-word Salsa20 input block holds the standard
// "expand 32-byte k" constants, the state, the message bits and the seed;
// the output is the first word of the core function.
func (s Salsa20) Sum(state uint32, m uint32, k int) uint32 {
	var in [16]uint32
	in[0] = 0x61707865
	in[5] = 0x3320646e
	in[10] = 0x79622d32
	in[15] = 0x6b206574
	in[1] = state
	in[2] = m & maskBits(k)
	in[3] = s.Seed
	in[4] = uint32(k)
	out := salsa20Core(&in)
	return out[0]
}

func salsa20Core(in *[16]uint32) [16]uint32 {
	x := *in
	for i := 0; i < 20; i += 2 {
		// Column round.
		x[4] ^= rot32(x[0]+x[12], 7)
		x[8] ^= rot32(x[4]+x[0], 9)
		x[12] ^= rot32(x[8]+x[4], 13)
		x[0] ^= rot32(x[12]+x[8], 18)
		x[9] ^= rot32(x[5]+x[1], 7)
		x[13] ^= rot32(x[9]+x[5], 9)
		x[1] ^= rot32(x[13]+x[9], 13)
		x[5] ^= rot32(x[1]+x[13], 18)
		x[14] ^= rot32(x[10]+x[6], 7)
		x[2] ^= rot32(x[14]+x[10], 9)
		x[6] ^= rot32(x[2]+x[14], 13)
		x[10] ^= rot32(x[6]+x[2], 18)
		x[3] ^= rot32(x[15]+x[11], 7)
		x[7] ^= rot32(x[3]+x[15], 9)
		x[11] ^= rot32(x[7]+x[3], 13)
		x[15] ^= rot32(x[11]+x[7], 18)
		// Row round.
		x[1] ^= rot32(x[0]+x[3], 7)
		x[2] ^= rot32(x[1]+x[0], 9)
		x[3] ^= rot32(x[2]+x[1], 13)
		x[0] ^= rot32(x[3]+x[2], 18)
		x[6] ^= rot32(x[5]+x[4], 7)
		x[7] ^= rot32(x[6]+x[5], 9)
		x[4] ^= rot32(x[7]+x[6], 13)
		x[5] ^= rot32(x[4]+x[7], 18)
		x[11] ^= rot32(x[10]+x[9], 7)
		x[8] ^= rot32(x[11]+x[10], 9)
		x[9] ^= rot32(x[8]+x[11], 13)
		x[10] ^= rot32(x[9]+x[8], 18)
		x[12] ^= rot32(x[15]+x[14], 7)
		x[13] ^= rot32(x[12]+x[15], 9)
		x[14] ^= rot32(x[13]+x[12], 13)
		x[15] ^= rot32(x[14]+x[13], 18)
	}
	for i := range x {
		x[i] += in[i]
	}
	return x
}

// RNG generates the c-bit numbers fed to the constellation mapping
// function. Following §7.1, output t for seed s is h(s, t): symbols need
// not be generated in sequence, so punctured or lost symbols are never
// computed. One 32-bit output supplies up to 32 bits, enough for both the
// I and Q fields at c ≤ 16.
type RNG struct {
	H Hash
}

// Word returns the t-th 32-bit pseudo-random word for seed.
func (r RNG) Word(seed uint32, t uint32) uint32 {
	return r.H.Sum(seed, t, 32)
}

// SumFunc is the devirtualized form of Hash.Sum: a direct function value
// bound at construction time so hot loops avoid interface dispatch.
type SumFunc func(state uint32, m uint32, k int) uint32

// Compile returns a direct function computing h.Sum. Known concrete types
// are bound without interface dispatch; unknown implementations fall back
// to the interface call.
func Compile(h Hash) SumFunc {
	switch c := h.(type) {
	case OneAtATime:
		return c.Sum
	case *OneAtATime:
		return (*c).Sum
	case Lookup3:
		return c.Sum
	case *Lookup3:
		return (*c).Sum
	case Salsa20:
		return c.Sum
	case *Salsa20:
		return (*c).Sum
	default:
		return h.Sum
	}
}

// Batch is a hash compiled for the decoder's transposed scoring: derive
// a parent's children, then finish one stored symbol's RNG word for
// every child at once. The pair splits each word h(child, t) at a
// per-child prefix, so whatever of the hash depends on the child alone
// is computed once per child rather than once per stored symbol:
// FinishWords(pre, t, out) after ChildrenPrefixes(state, kb, cs, pre)
// leaves out[m] = RNG{h}.Word(cs[m], t).
type Batch struct {
	// ChildrenPrefixes fills cs[m] = Sum(state, m, kb) for m < len(cs)
	// and pre[m] with cs[m]'s prefix. len(pre) ≥ len(cs).
	ChildrenPrefixes func(state uint32, kb int, cs, pre []uint32)
	// FinishWords fills out[j] with the t-th RNG word of the state whose
	// prefix is pre[j]. len(out) ≥ len(pre).
	FinishWords func(pre []uint32, t uint32, out []uint32)
}

// CompileBatch returns h's Batch. OneAtATime splits after the four
// state bytes (Prefix) and runs the SSE2 kernels; any other hash uses
// the child state itself as the prefix and finishes each word with one
// Sum(prefix, t, 32).
func CompileBatch(h Hash) Batch {
	if o, ok := AsOneAtATime(h); ok {
		return Batch{ChildrenPrefixes: o.ChildrenPrefixes, FinishWords: FinishWords}
	}
	sum := Compile(h)
	return Batch{
		ChildrenPrefixes: func(state uint32, kb int, cs, pre []uint32) {
			for m := range cs {
				cs[m] = sum(state, uint32(m), kb)
			}
			copy(pre, cs)
		},
		FinishWords: func(pre []uint32, t uint32, out []uint32) {
			for j, s := range pre {
				out[j] = sum(s, t, 32)
			}
		},
	}
}

// Prefix returns the one-at-a-time state after absorbing the four seed
// bytes — the per-seed half of an RNG Word: WordFinish(o.Prefix(s), t)
// == RNG{o}.Word(s, t). FinishWords and ChildrenPrefixes are the
// batched forms of this pair.
func (o OneAtATime) Prefix(seed uint32) uint32 {
	h := o.Seed
	h = oaatByte(h, byte(seed))
	h = oaatByte(h, byte(seed>>8))
	h = oaatByte(h, byte(seed>>16))
	h = oaatByte(h, byte(seed>>24))
	return h
}

// WordFinish completes a Prefix into the RNG word for index t:
// WordFinish(o.Prefix(seed), t) == RNG{o}.Word(seed, t).
func WordFinish(prefix, t uint32) uint32 {
	h := oaatByte(prefix, byte(t))
	h = oaatByte(h, byte(t>>8))
	h = oaatByte(h, byte(t>>16))
	h = oaatByte(h, byte(t>>24))
	h += h << 3
	h ^= h >> 11
	h += h << 15
	return h
}

// FinishWords fills out[j] = WordFinish(prefixes[j], t): one stored
// symbol's RNG word for every candidate state in a batch. On amd64 it
// runs four candidates per SSE2 instruction (hash_amd64.s); WordFinish
// stays the scalar reference. out must be at least as long as prefixes.
func FinishWords(prefixes []uint32, t uint32, out []uint32) {
	finishWords(prefixes, t, out[:len(prefixes)])
}

// ChildrenPrefixes fills cs[m] = Sum(state, m, kb) — the 2^kb child
// spine values of state — and pre[m] = Prefix(cs[m]) in one pass: the
// decoder needs a child's RNG prefix immediately after deriving the
// child, and fusing the two keeps the intermediate state in registers
// (in SSE2 lanes on amd64). Sum and Prefix stay the scalar reference.
// Requires kb ≤ 8 (the k range Params permits) and len(cs) = len(pre).
func (o OneAtATime) ChildrenPrefixes(state uint32, kb int, cs, pre []uint32) {
	childrenPrefixes(o.Prefix(state), o.Seed, cs, pre[:len(cs)])
}

// ExpandScore expands a block of parents of the fixed-point beam search
// and scores their children against the step's first stored symbol, in
// one pass. Parent i has spine state states[i], path cost costs[i] and
// origin org0 + i<<kb; costs ascend, and the first parent whose cost
// has reached tau (≥ 0) ends the block. An expanded parent's children
// Sum(state, m, kb), m < 2^kb, go to cs[i<<kb+m], and child m becomes
// the packed candidate cost<<32 | (origin+m), its cost the parent's
// plus the table sum its RNG word WordFinish(Prefix(child), t) indexes
// in dI and dQ, exactly as in hw.AccumulateCompact. Children whose cost reaches tau are
// dropped; survivors are written in parent-then-child order to the
// front of keys, each with its prefix Prefix(child) at the same index
// of pre, and their count is returned. cs must hold len(states)<<kb
// entries and keys and pre at least as many; kb ≤ 8 and cshift < 32.
//
// It fuses ChildrenPrefixes → FinishWords → hw.AccumulateCompact, as
// Appendix B's workers hash and score a child before streaming it to
// selection: on amd64 one SSE2 pass runs two four-lane chains, eight
// children per iteration, and only the survivors reach the key pool. A
// punctured step (§5) passes all-zero tables, so children keep their
// parent's cost and only tau filters.
func (o OneAtATime) ExpandScore(states []uint32, costs []int32, org0 uint32, kb int, t uint32, tau int32, dI, dQ []int32, cmask uint32, cshift uint, cs []uint32, keys []uint64, pre []uint32) int {
	nc := len(states) << uint(kb)
	return expandScore(o, states, costs[:len(states)], org0, kb, t, tau,
		dI[:cmask+1], dQ[:cmask+1], cmask, uint32(cshift), cs[:nc:nc], keys[:nc], pre[:nc])
}

// expandScoreGo is ExpandScore after its bounds are settled, composed
// parent by parent from the passes the SSE2 kernel fuses: the portable
// kernel on every other GOARCH and the oracle the SSE2 one is tested
// against.
func expandScoreGo(o OneAtATime, states []uint32, costs []int32, org0 uint32, kb int, t uint32, tau int32, dI, dQ []int32, cmask, cshift uint32, cs []uint32, keys []uint64, pre []uint32) int {
	fan := 1 << uint(kb)
	var words [256]uint32
	n := 0
	for i, state := range states {
		if costs[i] >= tau {
			break
		}
		c, k, p := cs[i*fan:(i+1)*fan], keys[n:n+fan], pre[n:n+fan]
		o.ChildrenPrefixes(state, kb, c, p)
		key := uint64(costs[i])<<32 | uint64(org0+uint32(i*fan))
		for m := range k {
			k[m] = key + uint64(m)
		}
		FinishWords(p, t, words[:fan])
		n += hw.AccumulateCompact(tau, k, p, words[:fan], dI, dQ, cmask, uint(cshift))
	}
	return n
}

// FinishScore scores one further stored symbol of a step for a block of
// candidates and compacts the survivors, in one pass: candidate j's RNG
// word WordFinish(pre[j], t) indexes dI and dQ, the table sum is added
// to the cost half of its packed key keys[j], and candidates whose cost
// reaches tau (≥ 0) are dropped, exactly as FinishWords followed by
// hw.AccumulateCompact. Survivors keep encounter order in the front of
// (keys, pre), in place; their count is returned. keys must be at least
// as long as pre, and cshift < 32.
//
// On amd64 one SSE2 pass finishes eight words per iteration in two
// four-lane chains and scores them straight from the stack, so the
// words never make the round trip through a buffer that the two
// separate passes need.
func FinishScore(tau int32, keys []uint64, pre []uint32, t uint32, dI, dQ []int32, cmask uint32, cshift uint) int {
	return finishScore(tau, keys[:len(pre)], pre, t, dI[:cmask+1], dQ[:cmask+1], cmask, uint32(cshift))
}

// finishScoreGo is FinishScore after its bounds are settled, composed
// from FinishWords and hw.AccumulateCompact over chunks of at most 256
// candidates, each chunk's survivors moved down to the write index: the
// portable kernel on every other GOARCH and the oracle the SSE2 one is
// tested against.
func finishScoreGo(tau int32, keys []uint64, pre []uint32, t uint32, dI, dQ []int32, cmask, cshift uint32) int {
	var words [256]uint32
	n := 0
	for j := 0; j < len(pre); j += len(words) {
		end := min(j+len(words), len(pre))
		w := words[:end-j]
		FinishWords(pre[j:end], t, w)
		m := hw.AccumulateCompact(tau, keys[j:end], pre[j:end], w, dI, dQ, cmask, uint(cshift))
		copy(keys[n:], keys[j:j+m])
		copy(pre[n:], pre[j:j+m])
		n += m
	}
	return n
}
