package link

import (
	"bytes"
	"sync"
	"testing"

	icode "spinal/internal/code"
	"spinal/internal/core"
)

// TestCodecPoolRoundTrip runs many encode→decode jobs across shards and
// block sizes, for the spinal code and Raptor, each on its own pool;
// every job must round-trip its message through the worker's cached
// icode decoder, and each shard builds at most one decoder per block
// size.
func TestCodecPoolRoundTrip(t *testing.T) {
	p := core.Params{K: 4, B: 16, D: 1, C: 6, Tail: 2, Ways: 8}
	for _, c := range []icode.Code{icode.Spinal(p), icode.Raptor()} {
		cp := newCodecPool(c, 4)
		const jobs = 64
		sizes := []int{24, 48, 96}
		var wg sync.WaitGroup
		errs := make([]string, jobs)
		for j := 0; j < jobs; j++ {
			wg.Add(1)
			cp.submit(j, func(w *worker) {
				defer wg.Done()
				nBits := sizes[j%len(sizes)]
				msg := make([]byte, (nBits+7)/8)
				for i := range msg {
					msg[i] = byte(j*31 + i*7)
				}
				enc := c.NewEncoder(msg, nBits)
				dec := w.decoder(nBits)
				sched := c.NewSchedule(nBits)
				errs[j] = "round trip failed"
				for sub := 0; sub < 64; sub++ {
					ids := sched.NextSubpass()
					dec.Add(ids, enc.Symbols(ids)) // noiseless
					if got, ok := dec.Decode(); ok && bytes.Equal(got, msg) {
						errs[j] = ""
						break
					}
				}
			})
		}
		wg.Wait()
		cp.Close()
		for j, e := range errs {
			if e != "" {
				t.Fatalf("%v: job %d: %s", c, j, e)
			}
		}
		maxDec := int64(cp.Shards() * len(sizes))
		if st := cp.Stats(); st.DecodersBuilt > maxDec {
			t.Errorf("%v: built %d decoders, want ≤ %d (shards × block sizes)", c, st.DecodersBuilt, maxDec)
		}
	}
}

// TestCodecPoolShardOrdering: jobs submitted to one shard run in order on
// one goroutine, so unsynchronized per-shard state is safe.
func TestCodecPoolShardOrdering(t *testing.T) {
	cp := newCodecPool(icode.Spinal(core.Params{K: 4, B: 4, D: 1, C: 6}), 2)
	defer cp.Close()
	const n = 100
	seq := make([]int, 0, n)
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		cp.submit(0, func(*worker) {
			seq = append(seq, i)
			wg.Done()
		})
	}
	wg.Wait()
	for i, v := range seq {
		if v != i {
			t.Fatalf("shard ran job %d at position %d", v, i)
		}
	}
}

// TestCodecPoolClose: Close drains queued jobs and is idempotent.
func TestCodecPoolClose(t *testing.T) {
	cp := newCodecPool(icode.Spinal(core.Params{K: 4, B: 4, D: 1, C: 6}), 3)
	var ran sync.WaitGroup
	ran.Add(10)
	for i := 0; i < 10; i++ {
		cp.submit(i, func(*worker) { ran.Done() })
	}
	cp.Close()
	cp.Close()
	ran.Wait()
}
