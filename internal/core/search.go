package core

import (
	"math"
	"math/bits"

	"spinal/internal/hashfn"
)

// evaluator computes branch costs and lookahead scores with private
// scratch; each decoder owns one.
//
// Branch evaluation is split into bind(chunk), which loads a chunk's
// stored-symbol slices into the closure, and cost(state), which scores
// one candidate spine state against the bound chunk. The split lets the
// expansion loop bind a chunk once and then evaluate many candidates
// with no per-candidate slice chasing. bind is idempotent (it tracks
// boundChunk), so lookahead recursion can rebind freely.
type evaluator struct {
	bind func(chunk int)
	cost func(state uint32) float64
	// expand derives parent's 2^kb child states into childs and scores
	// them against the bound chunk into costs, in transposed order — all
	// children against one stored symbol, then the next — so the
	// independent hash chains overlap in the pipeline instead of running
	// back to back. base is the parent's path cost and tau the caller's
	// rejection threshold: once base plus every partial cost in the batch
	// reaches tau, the remaining symbols may be skipped (path costs only
	// grow, and the caller drops every candidate scoring at or above
	// tau). A NaN tau never triggers the skip.
	expand   func(parent uint32, kb int, base, tau float64, childs []uint32, costs []float64)
	children hashfn.ChildrenFunc
	nBits    int
	k        int
	ns       int

	// costs holds one parent's child branch costs during expansion.
	costs []float64

	// boundChunk is the chunk bind last loaded; -1 after begin, since a
	// chunk's backing slices move as Add appends to them.
	boundChunk int

	// childBuf holds expanded child states (a stack of windows during
	// explore recursion).
	childBuf []uint32
}

// newEvaluator returns an evaluator over bs's code tree. The decoder
// supplies the metric: bind and cost, plus a batched expand for the
// one-at-a-time hash in place of the generic expandEach.
func (bs *beamSearch) newEvaluator() *evaluator {
	e := &evaluator{
		children: bs.children,
		nBits:    bs.nBits,
		k:        bs.p.K,
		ns:       numSpine(bs.nBits, bs.p.K),
	}
	e.expand = e.expandEach
	return e
}

// expandEach derives parent's children and scores each with cost.
func (e *evaluator) expandEach(parent uint32, kb int, _, _ float64, childs []uint32, costs []float64) {
	e.children(parent, kb, childs)
	for j, s := range childs {
		costs[j] = e.cost(s)
	}
}

// begin prepares the evaluator for a fresh decode attempt.
func (e *evaluator) begin() { e.boundChunk = -1 }

// explore returns the minimum additional path cost over all descendants
// depth levels below (state, chunk); this is the subtree score used to
// rank candidates when D > 1 (Fig 4-1 steps b–c).
func (e *evaluator) explore(state uint32, chunk, depth int) float64 {
	kb := chunkBits(e.nBits, e.k, chunk)
	fan := 1 << uint(kb)
	// explore recurses at most D-1 deep; keep a fresh window per level so
	// the recursion does not clobber the caller's child states.
	if len(e.childBuf)+fan > cap(e.childBuf) {
		grown := make([]uint32, len(e.childBuf), 2*(len(e.childBuf)+fan))
		copy(grown, e.childBuf)
		e.childBuf = grown
	}
	lo := len(e.childBuf)
	e.childBuf = e.childBuf[:lo+fan]
	window := e.childBuf[lo : lo+fan]
	e.children(state, kb, window)

	best := math.Inf(1)
	for _, cs := range window {
		e.bind(chunk) // deeper recursion rebinds
		c := e.cost(cs)
		if depth > 1 && chunk+1 < e.ns {
			c += e.explore(cs, chunk+1, depth-1)
		}
		if c < best {
			best = c
		}
	}
	e.childBuf = e.childBuf[:lo]
	return best
}

type beamNode struct {
	state uint32
	back  int32
	cost  float64
}

// candidate is one expanded child of a spine step. Selection orders
// candidates totally by (score, org): score is scoreKey(cost +
// lookahead), and org = parentIndex<<kb | branchBits is unique within a
// step (B·2^K < 2^32 for any beam that fits in memory).
type candidate struct {
	score uint64
	cost  float64 // accumulated true path cost
	org   uint32
	state uint32
}

type backRec struct {
	parent int32
	bits   uint16
}

// scoreKey maps a path cost to its selection key, its IEEE-754 bit
// pattern. Costs are non-negative, so the keys sort numerically, with
// +Inf and then every NaN last; Abs folds negative-signed NaNs onto the
// positive ones, which also keeps every key below noThreshold.
func scoreKey(x float64) uint64 { return math.Float64bits(math.Abs(x)) }

// noThreshold is the rejection threshold before a step's first select:
// no candidate is dropped.
const noThreshold = math.MaxUint64

func (a *candidate) before(b *candidate) bool { return orderBorrow(a, b) == 1 }

// orderBorrow is 1 when a precedes b by (score, org) and 0 otherwise:
// the borrow out of the 96-bit subtraction score:org − b.score:b.org,
// which compares without a branch. Origins are unique within a step, so
// candidates never tie.
func orderBorrow(a, b *candidate) uint64 {
	_, lo := bits.Sub32(a.org, b.org, 0)
	_, hi := bits.Sub64(a.score, b.score, uint64(lo))
	return hi
}

// candSortCutoff is the range length at and below which insertion sort
// finishes a select or sort, as in hw.SelectKeys.
const candSortCutoff = 16

// partitionCands partitions c (len(c) ≥ 3) around the median of its
// first, middle and last candidate and returns the pivot's final index
// m: c[:m] precede c[m], which precedes c[m+1:]. It is the float twin
// of the fixed-point kernel's partition (hw.SelectKeys): a branchless
// Lomuto pass that swaps every candidate to the write index and
// advances it by orderBorrow against the pivot.
func partitionCands(c []candidate) int {
	last := len(c) - 1
	mid := last / 2
	if c[mid].before(&c[0]) {
		c[mid], c[0] = c[0], c[mid]
	}
	if c[last].before(&c[0]) {
		c[last], c[0] = c[0], c[last]
	}
	if c[last].before(&c[mid]) {
		c[last], c[mid] = c[mid], c[last]
	}
	// The median parks at the end while the rest is partitioned.
	c[mid], c[last] = c[last], c[mid]
	pivot := c[last]
	rest := c[:last]
	n := 0
	for i := range rest {
		v := rest[i]
		rest[i] = rest[n]
		rest[n] = v
		n += int(orderBorrow(&v, &pivot))
	}
	c[n], c[last] = pivot, c[n]
	return n
}

// insertionSortCands sorts a short c by (score, org).
func insertionSortCands(c []candidate) {
	for a := 1; a < len(c); a++ {
		v := c[a]
		b := a - 1
		for b >= 0 && v.before(&c[b]) {
			c[b+1] = c[b]
			b--
		}
		c[b+1] = v
	}
}

// selectCands rearranges c so its k smallest candidates by (score, org)
// occupy c[:k] (in arbitrary order) and returns the k-th smallest score,
// the step's exact running threshold. It is the float twin of
// hw.SelectKeys: quickselect over the same branchless partition,
// finished by insertion sort on short ranges. Origins are unique, so the
// order is total and the kept set is deterministic. Requires
// 1 ≤ k ≤ len(c).
func selectCands(c []candidate, k int) uint64 {
	lo, hi := 0, len(c)
	for hi-lo > candSortCutoff {
		m := lo + partitionCands(c[lo:hi])
		switch {
		case k-1 < m:
			hi = m
		case k-1 > m:
			lo = m + 1
		default:
			return c[m].score
		}
	}
	insertionSortCands(c[lo:hi])
	return c[k-1].score
}

// sortCands sorts c by (score, org), the float twin of hw.SortKeys:
// quicksort over partitionCands, recursing into the shorter side.
func sortCands(c []candidate) {
	for len(c) > candSortCutoff {
		m := partitionCands(c)
		if m < len(c)-1-m {
			sortCands(c[:m])
			c = c[m+1:]
		} else {
			sortCands(c[m+1:])
			c = c[:m]
		}
	}
	insertionSortCands(c)
}

// beamSearch is the bubble decoder's search core, shared by the AWGN and
// BSC decoders. All working storage lives on the struct and is reused
// across runs, so a warmed-up decoder searches without allocating.
//
// It selects like the fixed-point kernel (quant.go): each step expands
// the beam's parents in ascending cost order, trims the candidate pool
// back to the best B by (score, origin) whenever it reaches 2B, and ends
// with one select plus a sort by (cost, origin) that fixes the survivor
// order and the next step's ascending-cost parent invariant.
type beamSearch struct {
	nBits    int
	p        Params
	children hashfn.ChildrenFunc

	beam     []beamNode
	nextBeam []beamNode
	cands    []candidate
	arena    []backRec
}

func newBeamSearch(nBits int, p Params) beamSearch {
	return beamSearch{nBits: nBits, p: p, children: hashfn.CompileChildren(p.Hash)}
}

// lookahead returns the effective subtree depth at step p: the configured
// D, shrunk at the tail of the message.
func (bs *beamSearch) lookahead(p, ns int) int {
	dd := bs.p.D
	if p+dd > ns {
		dd = ns - p
	}
	return dd
}

// expand expands the beam's parents at spine step p into dst and
// returns the candidates that can still make the B best: at least
// min(B, all children), so a step never comes back empty, whatever the
// costs. Whenever the pool reaches 2B it is trimmed to the B best, which
// sets tau to the exact running B-th score. A candidate scoring at or
// above tau is dropped before it is materialized (one tied with tau
// loses on origin, which only grows in expansion order), and when D > 1
// one whose base cost already reaches tau skips lookahead. The first
// parent whose own cost reaches tau ends the step: branch costs are
// non-negative, so neither its children nor any later parent's can
// score below tau.
func (bs *beamSearch) expand(e *evaluator, beam []beamNode, p, kb, dd int, dst []candidate) []candidate {
	fan := 1 << uint(kb)
	tau := uint64(noThreshold)
	if cap(e.costs) < fan {
		e.costs = make([]float64, fan)
	}
	costs := e.costs[:fan]
	if cap(e.childBuf) < fan {
		e.childBuf = make([]uint32, fan)
	}
	// The children's window is the bottom of the stack explore pushes
	// its windows onto.
	e.childBuf = e.childBuf[:fan]
	for bi := range beam {
		node := &beam[bi]
		if scoreKey(node.cost) >= tau {
			break
		}
		org := uint32(bi) << uint(kb)
		childs := e.childBuf[:fan]
		e.bind(p) // explore rebinds deeper chunks
		e.expand(node.state, kb, node.cost, math.Float64frombits(tau), childs, costs)
		for m, bc := range costs {
			base := node.cost + bc
			score := base
			if dd > 1 && scoreKey(base) < tau {
				score += e.explore(childs[m], p+1, dd-1)
			}
			if sk := scoreKey(score); sk < tau {
				dst = append(dst, candidate{
					score: sk, cost: base, org: org | uint32(m), state: childs[m],
				})
			}
		}
		if len(dst) >= 2*bs.p.B {
			tau = selectCands(dst, bs.p.B)
			dst = dst[:bs.p.B]
		}
	}
	return dst
}

// run executes the search and returns the best message with its path
// cost. The message is written into dst (grown if needed) and returned;
// the evaluator supplies branch costs.
func (bs *beamSearch) run(e *evaluator, dst []byte) ([]byte, float64) {
	k := bs.p.K
	ns := numSpine(bs.nBits, k)
	e.begin()

	beam := append(bs.beam[:0], beamNode{state: bs.p.Seed, back: -1, cost: 0})
	next := bs.nextBeam[:0]
	arena := bs.arena[:0]
	cands := bs.cands[:0]

	for p := 0; p < ns; p++ {
		kb := chunkBits(bs.nBits, k, p)
		cands = bs.expand(e, beam, p, kb, bs.lookahead(p, ns), cands[:0])
		if len(cands) > bs.p.B {
			selectCands(cands, bs.p.B)
			cands = cands[:bs.p.B]
		}
		// The survivors become the next step's parents, in ascending
		// (cost, org) order. With lookahead their scores exceed their
		// costs, so re-key them by cost first.
		if bs.p.D > 1 {
			for i := range cands {
				cands[i].score = scoreKey(cands[i].cost)
			}
		}
		sortCands(cands)
		next = next[:0]
		for _, c := range cands {
			arena = append(arena, backRec{
				parent: beam[c.org>>uint(kb)].back, bits: uint16(c.org & (1<<uint(kb) - 1)),
			})
			next = append(next, beamNode{state: c.state, back: int32(len(arena) - 1), cost: c.cost})
		}
		beam, next = next, beam
	}

	// Store the (possibly grown) buffers back for reuse.
	bs.beam, bs.nextBeam, bs.arena, bs.cands = beam, next, arena, cands
	return bs.backtrack(beam, arena, dst)
}

// backtrack walks the arena from beam[0], the cheapest final candidate
// (ascending order invariant), and reconstructs the message into dst
// (§4.4: with tail symbols the correct candidate has the lowest cost).
func (bs *beamSearch) backtrack(beam []beamNode, arena []backRec, dst []byte) ([]byte, float64) {
	n := (bs.nBits + 7) / 8
	if cap(dst) < n {
		dst = make([]byte, n)
	}
	msg := dst[:n]
	k := bs.p.K
	ns := numSpine(bs.nBits, k)
	idx := beam[0].back
	for j := ns - 1; j >= 0; j-- {
		setChunk(msg, bs.nBits, k, j, uint32(arena[idx].bits))
		idx = arena[idx].parent
	}
	return msg, beam[0].cost
}
