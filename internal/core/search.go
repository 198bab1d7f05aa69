package core

import (
	"math"
	"math/bits"
	"slices"

	"spinal/internal/hashfn"
)

// received is a decoder's store of received symbols per chunk, kept as
// parallel planes (structure of arrays) so the metric's inner loops walk
// dense slices. The AWGN decoder fills the y planes and, for chunks with
// known fading, the h planes; the BSC decoder fills bits.
type received struct {
	ts  [][]uint32  // RNG indices
	ysI [][]float64 // received symbol I plane
	ysQ [][]float64 // received symbol Q plane
	hsI [][]float64 // fading coefficient I plane (valid when faded[c])
	hsQ [][]float64 // fading coefficient Q plane
	// faded marks chunks whose hs planes are active; an unmarked chunk is
	// treated as h=1 throughout (plain AWGN).
	faded []bool
	bits  [][]byte // BSC received bits
}

// evaluator is the float search's one branch-cost scorer, shared by the
// AWGN and BSC decoders, every hash and every lookahead depth. Its
// expand derives a parent's children and scores them all against one
// chunk's stored symbols in transposed order; explore runs the same
// expand down the lookahead subtree. Each decoder owns one, with all
// scratch sized at construction or kept across decodes, so a warmed-up
// decoder scores without allocating.
type evaluator struct {
	rx    *received
	batch hashfn.Batch
	// table maps a c-bit field to its constellation value; nil selects
	// the BSC's Hamming metric over rx.bits.
	table  []float64
	cmask  uint32
	cshift uint
	nBits  int
	k      int
	ns     int

	// rowBuf holds every unfaded chunk's distance rows (see distRows),
	// chunk c's at rowBuf[rowOff[c]:rowOff[c+1]], laid out by begin.
	// built[c] records that this decode has filled chunk c's rows, so
	// each decode builds them at most once however often lookahead
	// returns to the chunk.
	rowBuf []float64
	rowOff []int
	built  []bool

	// pre and words hold one expansion's per-child RNG prefixes and two
	// stored symbols' worth of RNG words.
	pre   []uint32
	words []uint32

	// childBuf and costBuf are parallel stacks of child-state and cost
	// windows: the beam step's expansion at the bottom, one window per
	// lookahead level above it. Their capacity covers the deepest
	// recursion, so push never reallocates.
	childBuf []uint32
	costBuf  []float64
}

// newEvaluator returns the scorer for a decoder of nBits-bit messages
// under p over the symbols stored in rx. table is the constellation
// lookup of an AWGN decoder, nil for the BSC decoder.
func newEvaluator(rx *received, nBits int, p Params, table []float64) *evaluator {
	ns := numSpine(nBits, p.K)
	fan := 1 << uint(p.K)
	stack := min(p.D, ns) * fan
	return &evaluator{
		rx:       rx,
		batch:    hashfn.CompileBatch(p.Hash),
		table:    table,
		cmask:    1<<uint(p.C) - 1,
		cshift:   uint(p.C),
		nBits:    nBits,
		k:        p.K,
		ns:       ns,
		rowOff:   make([]int, ns+1),
		built:    make([]bool, ns),
		pre:      make([]uint32, fan),
		words:    make([]uint32, 2*fan),
		childBuf: make([]uint32, 0, stack),
		costBuf:  make([]float64, 0, stack),
	}
}

// begin prepares the evaluator for a fresh decode attempt: Add may have
// grown any chunk since the last one, so the rows are laid out afresh
// and every chunk's are stale.
func (e *evaluator) begin() {
	size := 2 * (int(e.cmask) + 1)
	for c, ts := range e.rx.ts {
		e.built[c] = false
		e.rowOff[c+1] = e.rowOff[c]
		if !e.rx.faded[c] {
			e.rowOff[c+1] += size * len(ts)
		}
	}
	e.rowBuf = slices.Grow(e.rowBuf[:0], e.rowOff[e.ns])[:e.rowOff[e.ns]]
}

// push reserves the next fan entries of the child and cost stacks.
func (e *evaluator) push(fan int) ([]uint32, []float64) {
	lo := len(e.childBuf)
	e.childBuf = e.childBuf[:lo+fan]
	e.costBuf = e.costBuf[:lo+fan]
	return e.childBuf[lo:], e.costBuf[lo:]
}

// pop releases the top fan entries of the child and cost stacks.
func (e *evaluator) pop(fan int) {
	e.childBuf = e.childBuf[:len(e.childBuf)-fan]
	e.costBuf = e.costBuf[:len(e.costBuf)-fan]
}

// distRows returns chunk's distance rows, building them on the chunk's
// first use in this decode. Stored symbol i owns two rows of L = 2^C
// entries at rows[2iL:], indexed by the I and the Q field of a
// candidate's RNG word. They do not depend on the candidate, so the
// inner loop of expand is two loads and two adds. AWGN rows hold the
// squared distances (y−x)² to every constellation value x. BSC rows are
// a Hamming table: (v^bit)&1 in the first row and zeros in the second,
// so costs stay exact integers.
func (e *evaluator) distRows(chunk int) []float64 {
	rows := e.rowBuf[e.rowOff[chunk]:e.rowOff[chunk+1]]
	if e.built[chunk] {
		return rows
	}
	e.built[chunk] = true
	L := int(e.cmask) + 1
	for i := range e.rx.ts[chunk] {
		dI, dQ := rows[2*i*L:(2*i+1)*L], rows[(2*i+1)*L:(2*i+2)*L]
		if e.table == nil {
			b := e.rx.bits[chunk][i]
			for v := range dI {
				dI[v] = float64((byte(v) ^ b) & 1)
				dQ[v] = 0
			}
			continue
		}
		yi, yq := e.rx.ysI[chunk][i], e.rx.ysQ[chunk][i]
		for v, x := range e.table {
			di, dq := yi-x, yq-x
			dI[v] = di * di
			dQ[v] = dq * dq
		}
	}
	return rows
}

// expand derives parent's 2^kb child states into childs and scores them
// against chunk's stored symbols into costs, in transposed order. Per
// stored symbol, FinishWords completes that symbol's RNG word for every
// child, so the independent hash chains overlap in the pipeline instead
// of running back to back; one pass then adds the symbol's two
// distance-row entries to every child's cost. A faded chunk computes
// |y − h·x|² directly in the same loop. A punctured chunk (§5) scores
// every child 0.
//
// base is the parent's path cost and tau the caller's rejection
// threshold: once base plus every partial cost in the batch reaches tau,
// the remaining symbols are skipped (path costs only grow, and the
// caller drops every candidate scoring at or above tau). A NaN tau never
// triggers the skip.
func (e *evaluator) expand(parent uint32, chunk, kb int, base, tau float64, childs []uint32, costs []float64) {
	nc := len(childs)
	pre, w0, w1 := e.pre[:nc], e.words[:nc], e.words[nc:2*nc]
	e.batch.ChildrenPrefixes(parent, kb, childs, pre)
	for j := range costs {
		costs[j] = 0
	}
	ts := e.rx.ts[chunk]
	n := len(ts)
	faded := e.rx.faded[chunk]
	var rows []float64
	if !faded {
		rows = e.distRows(chunk)
	}
	L := int(e.cmask) + 1
	cmask, cshift, table := e.cmask, e.cshift, e.table
	i := 0
	// Unfaded symbols go two at a time where possible: one pass over the
	// candidates covers both words, halving the cost-array traffic. The
	// accumulation order matches the one-symbol loop below exactly, so
	// costs are bit-identical either way.
	for ; !faded && i+1 < n; i += 2 {
		e.batch.FinishWords(pre, ts[i], w0)
		e.batch.FinishWords(pre, ts[i+1], w1)
		o0, o1 := 2*i*L, 2*(i+1)*L
		dI0 := rows[o0 : o0+L][: cmask+1 : cmask+1]
		dQ0 := rows[o0+L : o0+2*L][: cmask+1 : cmask+1]
		dI1 := rows[o1 : o1+L][: cmask+1 : cmask+1]
		dQ1 := rows[o1+L : o1+2*L][: cmask+1 : cmask+1]
		mn := math.Inf(1)
		for j, w := range w0 {
			v := w1[j]
			c := costs[j] + dI0[w&cmask] + dQ0[w>>cshift&cmask] + dI1[v&cmask] + dQ1[v>>cshift&cmask]
			costs[j] = c
			if c < mn {
				mn = c
			}
		}
		if base+mn >= tau {
			return
		}
	}
	for ; i < n; i++ {
		e.batch.FinishWords(pre, ts[i], w0)
		mn := math.Inf(1)
		if !faded {
			o := 2 * i * L
			dI := rows[o : o+L][: cmask+1 : cmask+1]
			dQ := rows[o+L : o+2*L][: cmask+1 : cmask+1]
			for j, w := range w0 {
				c := costs[j] + dI[w&cmask] + dQ[w>>cshift&cmask]
				costs[j] = c
				if c < mn {
					mn = c
				}
			}
		} else {
			yi, yq := e.rx.ysI[chunk][i], e.rx.ysQ[chunk][i]
			hi, hq := e.rx.hsI[chunk][i], e.rx.hsQ[chunk][i]
			for j, w := range w0 {
				xI := table[w&cmask]
				xQ := table[w>>cshift&cmask]
				dr := yi - (xI*hi - xQ*hq)
				di := yq - (xI*hq + xQ*hi)
				c := costs[j] + dr*dr + di*di
				costs[j] = c
				if c < mn {
					mn = c
				}
			}
		}
		if base+mn >= tau {
			return
		}
	}
}

// explore returns the minimum additional path cost over all descendants
// depth levels below (state, chunk); this is the subtree score used to
// rank candidates when D > 1 (Fig 4-1 steps b–c). Each level scores its
// children with expand, on a fresh window of the child and cost stacks.
func (e *evaluator) explore(state uint32, chunk, depth int) float64 {
	kb := chunkBits(e.nBits, e.k, chunk)
	fan := 1 << uint(kb)
	childs, costs := e.push(fan)
	e.expand(state, chunk, kb, 0, math.NaN(), childs, costs)
	best := math.Inf(1)
	for m, c := range costs {
		if depth > 1 && chunk+1 < e.ns {
			c += e.explore(childs[m], chunk+1, depth-1)
		}
		if c < best {
			best = c
		}
	}
	e.pop(fan)
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
	nBits int
	p     Params

	beam     []beamNode
	nextBeam []beamNode
	cands    []candidate
	arena    []backRec
}

func newBeamSearch(nBits int, p Params) beamSearch {
	return beamSearch{nBits: nBits, p: p}
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
	// The children's window is the bottom of the stacks explore pushes
	// its windows onto.
	childs, costs := e.push(fan)
	for bi := range beam {
		node := &beam[bi]
		if scoreKey(node.cost) >= tau {
			break
		}
		org := uint32(bi) << uint(kb)
		e.expand(node.state, p, kb, node.cost, math.Float64frombits(tau), childs, costs)
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
	e.pop(fan)
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
