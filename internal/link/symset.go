package link

import (
	"hash/maphash"
	"math/bits"
	"sync"

	"spinal/internal/core"
)

// symbolSet is the set of symbol IDs one block has observed: open
// addressing with linear probing over a power-of-two table kept at most
// half full. A block's set lives until the block decodes, then goes
// back to symbolSets with its table cleared, so in steady state — blocks
// decoding as fast as new ones start — deduplication allocates nothing.
// Slots are found by a process-seeded hash, as Go maps do, so a peer
// cannot choose IDs that pile into one probe run.
type symbolSet struct {
	slots []uint64 // 0 = empty, else symbolKey of a member
	n     int
	shift uint // 64 − log2(len(slots)): the hash's top bits index slots
}

var (
	symbolSets = sync.Pool{New: func() any { return new(symbolSet) }}
	symbolSeed = maphash.MakeSeed()
)

// symbolKey packs an ID whose Chunk lies in [0, 2^32−1) into a non-zero
// word.
func symbolKey(id core.SymbolID) uint64 {
	return uint64(id.Chunk+1)<<32 | uint64(id.RNGIndex)
}

// has reports whether id is a member.
func (s *symbolSet) has(id core.SymbolID) bool {
	return len(s.slots) > 0 && s.slots[s.slot(symbolKey(id))] != 0
}

// add inserts id, which must not be a member. The caller has checked
// id.Chunk against the block's chunk count.
func (s *symbolSet) add(id core.SymbolID) {
	if 2*(s.n+1) > len(s.slots) {
		s.grow()
	}
	key := symbolKey(id)
	s.slots[s.slot(key)] = key
	s.n++
}

// len is the member count; a nil set is empty.
func (s *symbolSet) len() int {
	if s == nil {
		return 0
	}
	return s.n
}

// slot returns the index holding key, or the empty slot where the probe
// for it ends. The table must be non-empty and not full.
func (s *symbolSet) slot(key uint64) uint64 {
	mask := uint64(len(s.slots) - 1)
	i := maphash.Comparable(symbolSeed, key) >> s.shift
	for s.slots[i] != key && s.slots[i] != 0 {
		i = (i + 1) & mask
	}
	return i
}

// grow doubles the table (64 slots at first) and reinserts the members.
func (s *symbolSet) grow() {
	old := s.slots
	size := max(64, 2*len(old))
	s.slots = make([]uint64, size)
	s.shift = uint(64 - bits.TrailingZeros(uint(size)))
	for _, key := range old {
		if key != 0 {
			s.slots[s.slot(key)] = key
		}
	}
}

// release empties s and returns it to symbolSets for the next block.
func (s *symbolSet) release() {
	clear(s.slots)
	s.n = 0
	symbolSets.Put(s)
}
