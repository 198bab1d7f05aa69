package hashfn

// finishWords is FinishWords over len(prefixes) ≤ len(out) elements,
// four SSE2 lanes at a time (hash_amd64.s).
//
//go:noescape
func finishWords(prefixes []uint32, t uint32, out []uint32)

// childrenPrefixes fills cs[m] and pre[m] for ChildrenPrefixes from the
// parent state's absorbed prefix h0 and the hash seed, four SSE2 lanes
// at a time (hash_amd64.s). Requires len(pre) ≥ len(cs).
//
//go:noescape
func childrenPrefixes(h0, seed uint32, cs, pre []uint32)

// expandScore is ExpandScore after its bounds are settled: one fused
// SSE2 pass over the block (hash_amd64.s). expandScoreGo states what it
// computes.
//
//go:noescape
func expandScore(o OneAtATime, states []uint32, costs []int32, org0 uint32, kb int, t uint32, tau int32, dI, dQ []int32, cmask, cshift uint32, cs []uint32, keys []uint64, pre []uint32) int

// finishScore is FinishScore after its bounds are settled: one SSE2
// pass over the block (hash_amd64.s). finishScoreGo states what it
// computes.
//
//go:noescape
func finishScore(tau int32, keys []uint64, pre []uint32, t uint32, dI, dQ []int32, cmask, cshift uint32) int
