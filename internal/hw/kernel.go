package hw

import (
	"math"
	"math/bits"
)

// This file is the software realization of the Appendix B datapath: the
// quantized branch-cost arithmetic the hardware decoder runs in narrow
// integer units, promoted from the cycle model in hw.go to the actual
// decode hot path. The core decoder drives these primitives over
// contiguous candidate arrays — build per-symbol distance tables once
// per spine step, add table lookups into the cost half of packed
// cost<<32 | origin candidate keys for a whole block at a time, drop
// dominated candidates in place, and keep the best B by an in-place
// partial select — so the inner loops are branch-light passes over
// dense slices, like the hardware's worker array streaming scored
// candidates into the selection unit.
//
// Arithmetic contract (asserted by the equivalence suite in
// internal/core): per-dimension squared distances are quantized to at
// most DimCap units with round-to-nearest, non-finite or out-of-range
// values saturate to the cap instead of overflowing, and the cap is
// sized so a full path accumulation stays below 2^30 — int32 adds in
// the hot loop can never wrap.

const (
	// DimCapMax is the ceiling on the per-dimension quantization range:
	// 2^20 units per squared-distance dimension. Finer than this buys no
	// decoding accuracy (the float path's own noise floor dominates) and
	// costs accumulation headroom.
	DimCapMax = 1 << 20
	// DimCapMin is the coarsest per-dimension range the kernel accepts;
	// below ~8 bits per dimension quantization noise starts to reorder
	// genuinely distinct candidates, so NewQuantizer refuses and the
	// caller falls back to float.
	DimCapMin = 1 << 8
	// accumBudget bounds the total quantized path cost: nsyms symbols ×
	// 2 dimensions × DimCap ≤ 2^30 < MaxInt32, with a factor-2 margin so
	// comparisons and selection arithmetic have headroom.
	accumBudget = 1 << 30
)

// Quantizer maps non-negative float64 squared distances to saturating
// fixed-point int32 units: q = round(v·scale), clamped to [0, cap].
// NaN, +Inf and any value at or beyond the representable range saturate
// to cap — the hardware behaviour (a full accumulator, not a wrapped
// one) and the property the fuzz target pins.
type Quantizer struct {
	scale float64 // quantized units per float cost unit
	cap   int32   // per-dimension saturation value
}

// NewQuantizer sizes a quantizer for a decode in which maxDim2
// upper-bounds every finite per-dimension squared distance and nsyms
// symbols contribute two dimensions each to a path cost. The cap is the
// largest power-of-two range that keeps a full accumulation under
// accumBudget (so in-loop adds cannot overflow), clamped to
// [DimCapMin, DimCapMax]. ok is false when no acceptable range exists —
// maxDim2 is not finite, or nsyms is so large the cap would fall below
// DimCapMin — and the caller must use the float path.
func NewQuantizer(maxDim2 float64, nsyms int) (Quantizer, bool) {
	if math.IsNaN(maxDim2) || math.IsInf(maxDim2, 0) || nsyms < 0 {
		return Quantizer{}, false
	}
	cap := int32(DimCapMax)
	if nsyms > 0 {
		if lim := accumBudget / (2 * nsyms); lim < DimCapMax {
			if lim < DimCapMin {
				return Quantizer{}, false
			}
			cap = int32(lim)
		}
	}
	scale := 1.0
	if maxDim2 > 0 {
		scale = float64(cap) / maxDim2
	}
	return Quantizer{scale: scale, cap: cap}, true
}

// Quantize converts one squared distance to fixed point, saturating at
// the cap. The !(< cap) comparison routes NaN to the cap as well.
func (q Quantizer) Quantize(v float64) int32 {
	s := v*q.scale + 0.5
	if !(s < float64(q.cap)) {
		return q.cap
	}
	if s < 0 {
		return 0
	}
	return int32(s)
}

// Dequantize converts a quantized cost back to float units.
func (q Quantizer) Dequantize(c int32) float64 { return float64(c) / q.scale }

// Step is the float-unit width of one quantized unit; rounding error per
// quantized dimension is at most Step()/2 (saturated values excepted).
func (q Quantizer) Step() float64 { return 1 / q.scale }

// Cap is the per-dimension saturation value.
func (q Quantizer) Cap() int32 { return q.cap }

// Tolerance bounds the absolute quantization error of an n-symbol path
// cost whose per-dimension distances all stayed below the saturation
// range: two dimensions per symbol, each rounded by at most Step()/2.
func (q Quantizer) Tolerance(n int) float64 { return float64(n) * q.Step() }

// BuildDistTables fills the per-symbol lookup tables for one stored
// (yI, yQ) symbol over the constellation x: dI[v] = Quantize((yI−x[v])²)
// and dQ[v] likewise. A non-finite received value poisons every entry to
// the cap through the saturating Quantize — the symbol still participates
// but cannot dominate a finite one, which is the saturation behaviour
// the fuzz target asserts.
func (q Quantizer) BuildDistTables(yI, yQ float64, x []float64, dI, dQ []int32) {
	for v, xv := range x {
		di := yI - xv
		dq := yQ - xv
		dI[v] = q.Quantize(di * di)
		dQ[v] = q.Quantize(dq * dq)
	}
}

// AccumulateCompact scores one stored symbol for a block of candidates
// and compacts the survivors in one pass. A candidate is its packed key
// cost<<32 | origin plus its RNG prefix: words[j] is candidate j's RNG
// word for the symbol (hashfn.FinishWords over the block's prefixes),
// whose low and next cshift bits index the two distance tables, and the
// table sum is added to the cost half of keys[j]. Candidates reaching
// tau are dropped on the spot — branch costs are non-negative, so a
// partial path at tau can only get worse, and a dropped candidate pays
// no further hashing or lookups this step. Survivors keep encounter
// order in the parallel (keys, pre) prefix; the survivor count is
// returned. In-place safe: the write index never passes the read index.
// Requires tau ≥ 0; overflow-free by the NewQuantizer cap invariant,
// which keeps every cost, and so every carry into the key's top half,
// below 2^31. hashfn.OneAtATime.ExpandScore runs the same pass for a
// step's first stored symbol, fused with the expansion.
func AccumulateCompact(tau int32, keys []uint64, pre, words []uint32, dI, dQ []int32, cmask uint32, cshift uint) int {
	dI = dI[: cmask+1 : cmask+1]
	dQ = dQ[: cmask+1 : cmask+1]
	keys = keys[:len(words)]
	pre = pre[:len(words)]
	lim := uint64(tau) << 32
	n := 0
	for j, w := range words {
		key := keys[j] + uint64(uint32(dI[w&cmask]+dQ[w>>cshift&cmask]))<<32
		// Branchless compaction: always store at the write index, advance
		// it by the borrow of key − tau<<32 (set exactly when the cost
		// half is below tau). Survival is data-dependent and near-random
		// mid-step; a conditional branch here eats its savings in
		// mispredictions.
		keys[n] = key
		pre[n] = pre[j]
		_, borrow := bits.Sub64(key, lim, 0)
		n += int(borrow)
	}
	return n
}

// SelectKeys rearranges keys so its k smallest values occupy keys[:k]
// (in arbitrary order) and returns the k-th smallest — the step's new
// exact beam threshold. Keys pack a candidate as cost<<32 | origin with
// a unique origin, so comparisons never tie and the selected set is
// deterministic regardless of block boundaries or encounter order; the
// cost-tied candidates that survive are those with the smallest origins
// (§4.3 permits any tie-breaking). Requires 1 ≤ k ≤ len(keys). This is
// the software form of the Appendix B selection unit: an in-place
// quickselect over partitionKeys, which the float decode path mirrors
// over (score, origin) pairs.
func SelectKeys(keys []uint64, k int) uint64 {
	lo, hi := 0, len(keys)
	for hi-lo > sortCutoff {
		m := lo + partitionKeys(keys[lo:hi])
		switch {
		case k-1 < m:
			hi = m
		case k-1 > m:
			lo = m + 1
		default:
			return keys[m]
		}
	}
	insertionSortKeys(keys[lo:hi])
	return keys[k-1]
}

// SortKeys sorts keys ascending: quicksort over partitionKeys, the
// selection's own partition, recursing into the shorter side. The
// decoder sorts each step's B survivors with it to fix their order.
func SortKeys(keys []uint64) {
	for len(keys) > sortCutoff {
		m := partitionKeys(keys)
		if m < len(keys)-1-m {
			SortKeys(keys[:m])
			keys = keys[m+1:]
		} else {
			SortKeys(keys[m+1:])
			keys = keys[:m]
		}
	}
	insertionSortKeys(keys)
}

// sortCutoff is the range length at and below which insertion sort
// finishes a select or sort.
const sortCutoff = 16

// partitionKeys partitions keys (len ≥ 3) around the median of its
// first, middle and last key and returns the pivot's final index m:
// keys[:m] < keys[m] ≤ keys[m+1:]. It is a branchless Lomuto pass:
// every element is swapped to the write index, which then advances by
// the borrow of key − pivot. Which side a key falls on is near-random,
// so a conditional branch there mispredicts about half the time; the
// unconditional swap costs two stores instead. Duplicate keys are
// impossible from the decoder and merely slow, never wrong, here.
func partitionKeys(keys []uint64) int {
	last := len(keys) - 1
	mid := last / 2
	if keys[mid] < keys[0] {
		keys[mid], keys[0] = keys[0], keys[mid]
	}
	if keys[last] < keys[0] {
		keys[last], keys[0] = keys[0], keys[last]
	}
	if keys[last] < keys[mid] {
		keys[last], keys[mid] = keys[mid], keys[last]
	}
	// The median parks at the end while the rest is partitioned.
	keys[mid], keys[last] = keys[last], keys[mid]
	pivot := keys[last]
	rest := keys[:last]
	n := 0
	for i, v := range rest {
		rest[i] = rest[n]
		rest[n] = v
		_, borrow := bits.Sub64(v, pivot, 0)
		n += int(borrow)
	}
	keys[n], keys[last] = pivot, keys[n]
	return n
}

// insertionSortKeys sorts a short keys ascending.
func insertionSortKeys(keys []uint64) {
	for a := 1; a < len(keys); a++ {
		v := keys[a]
		b := a - 1
		for b >= 0 && keys[b] > v {
			keys[b+1] = keys[b]
			b--
		}
		keys[b+1] = v
	}
}
