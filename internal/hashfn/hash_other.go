//go:build !amd64

package hashfn

// finishWords is FinishWords over len(prefixes) ≤ len(out) elements:
// the portable loop behind the amd64 SSE2 kernel.
func finishWords(prefixes []uint32, t uint32, out []uint32) {
	b0, b1, b2, b3 := byte(t), byte(t>>8), byte(t>>16), byte(t>>24)
	for j, p := range prefixes {
		h := oaatByte(p, b0)
		h = oaatByte(h, b1)
		h = oaatByte(h, b2)
		h = oaatByte(h, b3)
		h += h << 3
		h ^= h >> 11
		h += h << 15
		out[j] = h
	}
}

// childrenPrefixes fills cs[m] and pre[m] for ChildrenPrefixes from the
// parent state's absorbed prefix h0 and the hash seed: the portable
// loop behind the amd64 SSE2 kernel. Requires len(pre) ≥ len(cs).
func childrenPrefixes(h0, seed uint32, cs, pre []uint32) {
	for m := range cs {
		h := oaatByte(h0, byte(m))
		h += h << 3
		h ^= h >> 11
		h += h << 15
		cs[m] = h
		p := oaatByte(seed, byte(h))
		p = oaatByte(p, byte(h>>8))
		p = oaatByte(p, byte(h>>16))
		p = oaatByte(p, byte(h>>24))
		pre[m] = p
	}
}

// expandScore is ExpandScore after its bounds are settled: the portable
// composition.
func expandScore(o OneAtATime, states []uint32, costs []int32, org0 uint32, kb int, t uint32, tau int32, dI, dQ []int32, cmask, cshift uint32, cs []uint32, keys []uint64, pre []uint32) int {
	return expandScoreGo(o, states, costs, org0, kb, t, tau, dI, dQ, cmask, cshift, cs, keys, pre)
}

// finishScore is FinishScore after its bounds are settled: the portable
// composition.
func finishScore(tau int32, keys []uint64, pre []uint32, t uint32, dI, dQ []int32, cmask, cshift uint32) int {
	return finishScoreGo(tau, keys, pre, t, dI, dQ, cmask, cshift)
}
