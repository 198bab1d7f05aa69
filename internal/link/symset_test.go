package link

import (
	"math/rand"
	"testing"

	"spinal/internal/core"
)

// TestSymbolSetMembership checks the dedup set against a map over IDs
// drawn from a small space, so repeats are common, across several
// table growths and a recycle through the pool.
func TestSymbolSetMembership(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for round := 0; round < 3; round++ {
		s := symbolSets.Get().(*symbolSet)
		want := make(map[core.SymbolID]bool)
		for i := 0; i < 5000; i++ {
			id := core.SymbolID{Chunk: rng.Intn(40), RNGIndex: uint32(rng.Intn(200))}
			if round == 2 {
				id.RNGIndex = rng.Uint32() // the full index range
			}
			if got := s.has(id); got != want[id] {
				t.Fatalf("round %d: has(%+v) = %v, want %v", round, id, got, want[id])
			}
			if !want[id] {
				s.add(id)
				want[id] = true
			}
			if s.len() != len(want) {
				t.Fatalf("round %d: len %d, want %d", round, s.len(), len(want))
			}
		}
		s.release()
	}
	var none *symbolSet
	if none.len() != 0 {
		t.Fatal("nil set is not empty")
	}
}

// TestSymbolSetSteadyStateAllocs pins the receiver's dedup as
// allocation-free once its tables circulate: taking a set from the
// pool, observing a block's worth of symbols twice (every frame
// replayed once) and releasing it allocates nothing after the first
// block. The race detector makes sync.Pool drop items on purpose, so
// the assertion holds only without it.
func TestSymbolSetSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under -race")
	}
	ids := make([]core.SymbolID, 0, 600)
	for pass := 0; pass < 20; pass++ {
		for c := 0; c < 30; c++ {
			ids = append(ids, core.SymbolID{Chunk: c, RNGIndex: uint32(pass)})
		}
	}
	block := func() {
		s := symbolSets.Get().(*symbolSet)
		for range 2 {
			for _, id := range ids {
				if !s.has(id) {
					s.add(id)
				}
			}
		}
		s.release()
	}
	block()
	if a := testing.AllocsPerRun(50, block); a != 0 {
		t.Fatalf("dedup allocates %.1f objects per block in steady state, want 0", a)
	}
}
