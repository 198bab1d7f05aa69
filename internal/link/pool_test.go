package link

import (
	"bytes"
	"sync"
	"testing"

	icode "spinal/internal/code"
	"spinal/internal/core"
)

// TestCodecPoolRoundTrip runs many encode→decode jobs across shards and
// block sizes, for the pool's spinal code and a second code under its
// own key; every job must round-trip its message through the worker's
// cached icode decoder, and each shard builds at most one decoder per
// code and block size.
func TestCodecPoolRoundTrip(t *testing.T) {
	p := core.Params{K: 4, B: 16, D: 1, C: 6, Tail: 2, Ways: 8}
	cp := NewCodecPool(p, 4)
	defer cp.Close()
	codes := []icode.Code{cp.code, icode.Raptor()}
	keys := []int64{0, cp.newKey()}

	const jobs = 64
	sizes := []int{24, 48, 96}
	var wg sync.WaitGroup
	errs := make([]string, jobs)
	for j := 0; j < jobs; j++ {
		wg.Add(1)
		cp.submit(j, func(w *worker) {
			defer wg.Done()
			c, key := codes[j%2], keys[j%2]
			nBits := sizes[j%len(sizes)]
			msg := make([]byte, (nBits+7)/8)
			for i := range msg {
				msg[i] = byte(j*31 + i*7)
			}
			enc := c.NewEncoder(msg, nBits)
			dec := w.decoder(c, key, nBits)
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
	for j, e := range errs {
		if e != "" {
			t.Fatalf("job %d: %s", j, e)
		}
	}
	maxDec := int64(cp.Shards() * len(sizes) * len(codes))
	if st := cp.Stats(); st.DecodersBuilt > maxDec {
		t.Errorf("built %d decoders, want ≤ %d (shards × block sizes × codes)", st.DecodersBuilt, maxDec)
	}
}

// TestCodecPoolShardOrdering: jobs submitted to one shard run in order on
// one goroutine, so unsynchronized per-shard state is safe.
func TestCodecPoolShardOrdering(t *testing.T) {
	cp := NewCodecPool(core.Params{K: 4, B: 4, D: 1, C: 6}, 2)
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

// TestCodecPoolClose: Close drains queued jobs and is idempotent, and a
// closed pool's cache queries and cleanup are no-ops rather than panics.
func TestCodecPoolClose(t *testing.T) {
	cp := NewCodecPool(core.Params{K: 4, B: 4, D: 1, C: 6}, 3)
	var ran sync.WaitGroup
	ran.Add(10)
	for i := 0; i < 10; i++ {
		cp.submit(i, func(*worker) { ran.Done() })
	}
	cp.Close()
	cp.Close()
	ran.Wait()
	cp.forget(cp.newKey())
	if n := cp.CachedDecoders(); n != 0 {
		t.Fatalf("closed pool reports %d cached decoders", n)
	}
}

// TestEngineCloseForgetsOwnCode: an engine that brings its own code to a
// shared pool leaves no decoder behind when it closes, while the pool's
// own code's decoders — shared by every engine without a code — stay warm.
func TestEngineCloseForgetsOwnCode(t *testing.T) {
	cfg := engineParams()
	pool := NewCodecPool(cfg.Params, 2)
	defer pool.Close()
	cfg.Pool = pool
	run := func(c icode.Code) {
		cfg.Code = c
		e := NewEngine(cfg)
		defer e.Close()
		data := []byte("one block of payload")
		e.AddFlow(data, FlowConfig{})
		res := e.Drain(0)
		if len(res) != 1 || res[0].Err != nil || !bytes.Equal(res[0].Datagram, data) {
			t.Fatalf("%v: flow failed: %+v", c, res)
		}
	}
	run(nil)
	warm := pool.CachedDecoders()
	if warm == 0 {
		t.Fatal("the pool's code cached no decoder")
	}
	run(icode.Raptor())
	if got := pool.CachedDecoders(); got != warm {
		t.Fatalf("pool caches %d decoders after the Raptor engine closed, want %d", got, warm)
	}
}
