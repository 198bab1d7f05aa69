package core

import (
	"math"

	"spinal/internal/hashfn"
	"spinal/internal/hw"
)

// The quantized decode path: the bubble decoder of §4 run on the
// Appendix B fixed-point datapath (internal/hw) instead of float64
// branch metrics. Per spine step it quantizes the per-symbol squared
// distances into saturating int32 tables (hw.Quantizer.BuildDistTables,
// two branch-free entries per SSE2 instruction on amd64) and expands
// the beam in blocks of contiguous parents. A candidate is its packed
// cost<<32 | origin key from expansion on, written straight into the
// step's key pool with only its RNG prefix alongside. One
// hashfn.OneAtATime.ExpandScore call per block derives every child,
// scores it against the step's first stored symbol and drops the ones
// the pruning bound dominates — one fused SSE2 pass on amd64, as
// Appendix B's workers hash and score a child before streaming it to
// selection. Each further stored symbol costs one hashfn.FinishScore
// pass over the block's survivors: FinishWords and hw.AccumulateCompact
// fused, so on amd64 the RNG words go from SSE2 lanes to the table
// lookups without a buffer in between. The best B are kept via
// in-place hw.SelectKeys: quickselect over a branchless Lomuto
// partition, whose last range is finished by a 16-key sorting network
// of conditional moves (by insertion sort under 8 keys).
// Selection runs whenever the survivor pool reaches 2B after a block,
// the first time it reaches B while the bound is still open and
// parents remain, and once at the end of the step; each select trims
// back to B and re-tightens the pruning bound to the exact running
// B-th best (the select pivot), so every later block of the step is
// filtered by it. The block size follows the decode width
// (quantBlockCand), so that a step of B ≥ 2 parents spans at least two
// blocks: 256 candidates once a step holds 512 or more (B ≥ 32 at
// K=4), half the step below that. The bound therefore tightens inside
// every such step at every K. The float path in search.go selects the
// same way over (score, origin) pairs and remains the reference
// implementation.
//
// Beam order is an invariant: each step emits its survivors sorted by
// packed key (cost, then origin; hw.SortKeys, a quicksort over the same
// partition and finish), so the next step expands parents in
// ascending cost order and stops at the first parent the running
// threshold dominates. Selection over unique packed keys makes the
// survivor set — and therefore the decode — fully deterministic,
// independent of block boundaries and of the selection algorithm: the
// survivors are the B smallest keys of the step, tau is the cost of the
// B-th smallest key seen so far, and a later block only holds larger
// origins, so a candidate it drops at cost ≥ tau has at least B smaller
// keys ahead of it (TestQuantDecodeBlockIndependent checks every block
// size).

// quantMaxStates bounds B·2^K on the quantized path: child states are
// stashed densely by origin (parentRank<<kb | branchBits), so the stash
// has B·2^K entries. 2^22 (16 MiB of states) is far beyond the paper's
// operating range while keeping a pathological Params from allocating
// gigabytes.
const quantMaxStates = 1 << 22

// quantBlockCand is the expansion block size, in candidates, of a
// quantized decode at beam width B with fan-out 2^k: half a step's B·2^k
// candidates, at least one parent's children and at most 256. Blocks of
// 256 are enough parents to amortize the batched loops; below that, a
// step of B·2^k ≤ 256 candidates would be a single block scored against
// an infinite threshold, so it is split in two and the second half is
// pruned by the first half's B-th best. 128-candidate blocks measured
// neutral or slower at B ≥ 32, where a step already spans two or more
// 256-candidate blocks (EXPERIMENTS.md, "Kernel v4: two blocks per
// step").
func quantBlockCand(B, k int) int {
	fan := 1 << uint(k)
	return min(256, max(fan, B*fan/2))
}

// quantSelectDue reports whether a step selects its best B after a
// block, leaving a pool of the given size, the pruning bound tau and
// more parents still to expand or not. It re-selects once the pool
// doubles: trimming back to B re-tightens tau to the exact running B-th
// best (the select's pivot cost). Selecting at 2B rather than every
// block halves the number of partitions while each still costs O(2B) —
// tau is at most one pool-doubling stale, which only admits extra
// candidates, never loses one. The first time the pool holds B keys, tau
// is closed at once if parents remain, so the rest of the step is never
// scored against an open threshold; at K=1 a first block of half a step
// is exactly B keys and would otherwise leave tau open.
func quantSelectDue(pool, B int, tau int32, more bool) bool {
	return pool >= 2*B || pool >= B && tau == math.MaxInt32 && more
}

// quantAbsYLimit is the largest |y| a stored symbol may contribute to
// the quantization range. Larger (or non-finite) values get no say in
// the scale — their distance-table entries saturate at the cap instead —
// so one adversarial sample cannot crush the resolution available to
// every sane symbol, and the range arithmetic itself cannot overflow.
const quantAbsYLimit = 1e75

// quantSearch owns the quantized path's scratch; all slices keep their
// capacity across decodes, so a warmed-up decoder runs at zero
// allocations, mirroring beamSearch.
type quantSearch struct {
	qz  hw.Quantizer
	tol float64 // qz.Tolerance(nsyms) of the most recent run

	// Beam SoA planes (parallel by index, ascending cost) and the
	// double-buffered next step.
	bState, b2State []uint32
	bCost, b2Cost   []int32
	bBack, b2Back   []int32

	// keys holds the step's candidates as cost<<32 | origin: the
	// survivors so far, then the block being expanded and scored.
	keys []uint64
	// sByOrg stashes child spine states densely by origin, so selection
	// only ever moves the 8-byte keys.
	sByOrg []uint32
	// pre holds the RNG prefixes of the current block's candidates,
	// parallel to the block's window of keys.
	pre  []uint32
	tabs []int32 // one step's distance tables: n symbols × 2 dims × 2^C
}

func ensureU32(s []uint32, n int) []uint32 {
	if cap(s) < n {
		return make([]uint32, n)
	}
	return s[:n]
}

func ensureI32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

// quantEligible reports whether the next Decode may use the fixed-point
// kernel: the static half (hash, depth, state-stash bound, kernel mode)
// is decided at construction; fading-aware symbols opt out per decode
// because the quantized tables assume h = 1.
func (d *Decoder) quantEligible() bool {
	return d.quantStatic && !d.anyFaded
}

// quantRange scans the stored planes for the largest finite
// per-dimension squared distance any candidate can see:
// (|y| + max|x|)², with |y| capped at quantAbsYLimit. The floor of
// (2·max|x|)² keeps the scale meaningful when no stored symbol
// qualifies.
func (d *Decoder) quantRange() float64 {
	maxA := 2 * d.maxAbsX
	for c := range d.ts {
		for _, plane := range [2][]float64{d.ysI[c], d.ysQ[c]} {
			for _, y := range plane {
				a := math.Abs(y)
				if a <= quantAbsYLimit && a+d.maxAbsX > maxA {
					maxA = a + d.maxAbsX
				}
			}
		}
	}
	return maxA * maxA
}

// decodeQuantized runs the fixed-point beam search over all stored
// symbols, keeping the best B of every step (1 ≤ B ≤ Params.B) and
// expanding blockCand ≥ 2^K candidates per block (quantBlockCand(B, K)
// outside tests; the result does not depend on it). ok is
// false when no feasible quantization exists (the caller then uses the
// float path); otherwise the message is written into dst (grown if
// needed) and returned with its dequantized path cost. Scratch is sized
// for Params.B and its block size whatever B is, so a narrow decode
// followed by a full one on a warmed decoder allocates nothing.
func (d *Decoder) decodeQuantized(dst []byte, B, blockCand int) ([]byte, float64, bool) {
	qz, ok := hw.NewQuantizer(d.quantRange(), d.nsyms)
	if !ok {
		return nil, 0, false
	}
	q := &d.q
	q.qz = qz
	q.tol = qz.Tolerance(d.nsyms)

	k := d.p.K
	maxB := d.p.B
	ns := d.ns
	L := len(d.table)
	cshift := uint(d.p.C)
	maxBlock := max(blockCand, quantBlockCand(maxB, k))
	q.bState = ensureU32(q.bState, maxB)
	q.bCost = ensureI32(q.bCost, maxB)
	q.bBack = ensureI32(q.bBack, maxB)
	q.b2State = ensureU32(q.b2State, maxB)
	q.b2Cost = ensureI32(q.b2Cost, maxB)
	q.b2Back = ensureI32(q.b2Back, maxB)
	q.sByOrg = ensureU32(q.sByOrg, maxB<<uint(k))
	q.pre = ensureU32(q.pre, maxBlock)
	if cap(q.keys) < 2*maxB+maxBlock {
		q.keys = make([]uint64, 0, 2*maxB+maxBlock)
	}

	bState, bCost, bBack := q.bState, q.bCost, q.bBack
	b2State, b2Cost, b2Back := q.b2State, q.b2Cost, q.b2Back
	bState[0], bCost[0], bBack[0] = d.p.Seed, 0, -1
	nbeam := 1
	arena := d.bs.arena[:0] // shared with the float path; runs never overlap

	for p := 0; p < ns; p++ {
		kb := chunkBits(d.nBits, k, p)
		fan := 1 << uint(kb)
		ts := d.ts[p]
		n := len(ts)

		// Per-step distance tables: L1-resident, one row pair per stored
		// symbol. Non-finite received values saturate here (hw.Quantize),
		// never in the accumulation loop. A punctured step (§5) scores
		// its children against one all-zero pair instead: they inherit
		// the parent cost, and only the threshold filters.
		tabs := ensureI32(q.tabs, max(n, 1)*2*L)
		q.tabs = tabs
		yI, yQ := d.ysI[p], d.ysQ[p]
		for i := 0; i < n; i++ {
			o := i * 2 * L
			qz.BuildDistTables(yI[i], yQ[i], d.table, tabs[o:o+L], tabs[o+L:o+2*L])
		}
		t0, dI0, dQ0 := uint32(0), tabs[:L], tabs[L:2*L]
		if n > 0 {
			t0 = ts[0]
		} else {
			clear(tabs)
		}

		blockP := blockCand >> uint(kb)
		if blockP == 0 {
			blockP = 1
		}
		tau := int32(math.MaxInt32)
		keys := q.keys[:0]
		for bi := 0; bi < nbeam; {
			// Parents arrive in ascending cost order; the first one the
			// threshold dominates ends the step (children only add cost).
			if bCost[bi] >= tau {
				break
			}
			bend := bi + blockP
			if bend > nbeam {
				bend = nbeam
			}
			// The block's candidates go straight into the key pool: fewer
			// than 2B keys are held here and a block adds at most
			// blockCand, within the capacity reserved above.
			nk := len(keys)
			blk := keys[nk : nk+blockCand]
			bn := d.oaat.ExpandScore(bState[bi:bend], bCost[bi:bend], uint32(bi)<<uint(kb), kb, t0, tau,
				dI0, dQ0, d.cmask, cshift, q.sByOrg[bi<<uint(kb):bend<<uint(kb)], blk, q.pre)
			for i := 1; i < n && bn > 0; i++ {
				o := i * 2 * L
				bn = hashfn.FinishScore(tau, blk, q.pre[:bn], ts[i],
					tabs[o:o+L], tabs[o+L:o+2*L], d.cmask, cshift)
			}
			keys = keys[:nk+bn]
			bi = bend
			if quantSelectDue(len(keys), B, tau, bi < nbeam) {
				pivot := hw.SelectKeys(keys, B)
				keys = keys[:B]
				tau = int32(pivot >> 32)
			}
		}
		if len(keys) > B {
			hw.SelectKeys(keys, B)
			keys = keys[:B]
		}
		q.keys = keys
		if len(keys) == 0 {
			// Unreachable (the first block always survives an infinite
			// threshold), but a silent fallback beats a corrupt beam.
			return nil, 0, false
		}

		// Sorting the packed keys both fixes the survivor order
		// deterministically and establishes the next step's
		// ascending-cost parent invariant.
		hw.SortKeys(keys)
		for j, key := range keys {
			og := uint32(key)
			arena = append(arena, backRec{
				parent: bBack[og>>uint(kb)],
				bits:   uint16(og & uint32(fan-1)),
			})
			b2State[j] = q.sByOrg[og]
			b2Cost[j] = int32(key >> 32)
			b2Back[j] = int32(len(arena) - 1)
		}
		nbeam = len(keys)
		bState, b2State = b2State, bState
		bCost, b2Cost = b2Cost, bCost
		bBack, b2Back = b2Back, bBack
	}

	q.bState, q.bCost, q.bBack = bState, bCost, bBack
	q.b2State, q.b2Cost, q.b2Back = b2State, b2Cost, b2Back
	d.bs.arena = arena

	// beam[0] is the cheapest final candidate (ascending order invariant).
	nb := (d.nBits + 7) / 8
	if cap(dst) < nb {
		dst = make([]byte, nb)
	}
	msg := dst[:nb]
	idx := bBack[0]
	for j := ns - 1; j >= 0; j-- {
		setChunk(msg, d.nBits, k, j, uint32(arena[idx].bits))
		idx = arena[idx].parent
	}
	return msg, qz.Dequantize(bCost[0]), true
}
