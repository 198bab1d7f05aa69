package core

// SymbolID identifies one transmitted symbol: which spine value generated
// it and which RNG output index produced its bits. The encoder and decoder
// derive identical SymbolID streams from the shared Schedule, which is how
// they stay synchronized without metadata on the air (§6 assumes the
// receiver knows which spine values are in each frame).
type SymbolID struct {
	// Chunk is the 0-based spine index (message chunk) of the symbol.
	Chunk int
	// RNGIndex is the index handed to the RNG for this symbol.
	RNGIndex uint32
}

// Schedule enumerates the transmission order of symbols: passes divided
// into subpasses per the §5 puncturing schedule, with §4.4 tail symbols
// for the final spine value emitted once per pass.
//
// With Ways = w, each pass has w subpasses; subpass r of a pass transmits
// the spine values whose index is congruent to order[r] (mod w). The
// residue order interleaves classes so that after any prefix of subpasses
// the transmitted spine values are close to evenly spaced, which is what
// makes aggressive early decode attempts worthwhile (Fig 8-10).
type Schedule struct {
	nspine int
	ways   int
	tail   int
	order  []int
	sub    int      // next subpass number within the pass
	next   []uint32 // per-chunk RNG index counters
}

// residueOrder lists the §5-style subpass residue sequence for each
// supported fan-out. The sequences are bit-reversed counting, so each
// prefix of subpasses spreads transmitted spine values evenly.
var residueOrder = map[int][]int{
	1: {0},
	2: {1, 0},
	4: {3, 1, 2, 0},
	8: {7, 3, 5, 1, 6, 2, 4, 0},
}

// NewScheduleFor creates the transmission schedule for an nBits-bit
// message under p, applying the same parameter defaulting as the codecs.
// It matches Encoder.NewSchedule and Decoder.NewSchedule without needing
// either in hand — the link layer's senders schedule blocks whose
// encoders run in the engine's codec fan-out.
func NewScheduleFor(nBits int, p Params) *Schedule {
	p = p.withDefaults()
	return NewSchedule(numSpine(nBits, p.K), p.Ways, p.Tail)
}

// NewSchedule creates the symbol schedule for a code with nspine spine
// values, the given puncturing fan-out (1, 2, 4 or 8) and tail symbol
// count (≥1, total symbols from the last spine value per pass).
func NewSchedule(nspine, ways, tail int) *Schedule {
	ord, ok := residueOrder[ways]
	if !ok {
		panic("core: puncturing ways must be 1, 2, 4 or 8")
	}
	if nspine < 1 {
		panic("core: schedule needs at least one spine value")
	}
	if tail < 1 {
		panic("core: tail must be ≥ 1")
	}
	return &Schedule{
		nspine: nspine,
		ways:   ways,
		tail:   tail,
		order:  ord,
		next:   make([]uint32, nspine),
	}
}

// SymbolsPerPass reports the number of symbols a full pass transmits:
// one per spine value plus the extra tail symbols.
func (s *Schedule) SymbolsPerPass() int { return s.nspine + s.tail - 1 }

// Subpasses reports the number of subpasses per pass.
func (s *Schedule) Subpasses() int { return s.ways }

// NextSubpass returns the SymbolIDs of the next subpass in transmission
// order, advancing the schedule. Successive calls cycle through subpasses
// and then begin the next pass; the stream is infinite (rateless).
func (s *Schedule) NextSubpass() []SymbolID {
	residue := s.order[s.sub]
	last := s.nspine - 1
	// At most ⌈(nspine−residue)/ways⌉ spine values plus tail−1 extras.
	ids := make([]SymbolID, 0, (s.nspine-residue)/s.ways+s.tail)
	for c := residue; c < s.nspine; c += s.ways {
		ids = append(ids, s.take(c))
		if c == last {
			for extra := 1; extra < s.tail; extra++ {
				ids = append(ids, s.take(last))
			}
		}
	}
	s.sub++
	if s.sub == s.ways {
		s.sub = 0
	}
	return ids
}

func (s *Schedule) take(chunk int) SymbolID {
	id := SymbolID{Chunk: chunk, RNGIndex: s.next[chunk]}
	s.next[chunk]++
	return id
}
