package link

import (
	"runtime"
	"sync"
	"sync/atomic"

	icode "spinal/internal/code"
	"spinal/internal/core"
)

// CodecPool is a sharded pool of persistent codec workers: submit hands a
// job to one shard's goroutine, which runs it with the shard's private
// decoder cache. Callers that route related work (all attempts for one
// code block, say) to a stable shard get the same warmed decoders every
// time, while independent shards run concurrently.
//
// The pool carries the spinal code of its parameters; engines that bring
// no code of their own run it and share its cached decoders, one per
// shard and block size. An engine with its own code gets a private cache
// key (newKey) and drops its entries when it closes (forget).
type CodecPool struct {
	w     *codecWorkers
	code  icode.Code
	built *atomic.Int64
	keys  atomic.Int64 // last key handed out by newKey; 0 is the pool's code
}

// codecWorkers is the shutdown-owning half of a pool. It is referenced by
// neither the worker goroutines (each holds only its own job channel) nor
// the runtime cleanup's target, so an abandoned CodecPool handle becomes
// unreachable, its cleanup fires, and the workers exit.
type codecWorkers struct {
	jobs []chan func(*worker)
	wg   sync.WaitGroup
	// mu orders stop against forEachShard's submissions. Workers never
	// take it, so holding it while their queues drain cannot stall them.
	mu     sync.Mutex
	closed bool
}

func (w *codecWorkers) stop() {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return
	}
	w.closed = true
	for _, c := range w.jobs {
		close(c)
	}
	w.wg.Wait()
}

// decoderKey names one cached decoder: the code it decodes (0 for the
// pool's own code, a newKey value otherwise) and its block size.
type decoderKey struct {
	code  int64
	nBits int
}

// worker is one shard's private state. A Decoder's search scratch is
// sized for one block size, so the cache holds one decoder per code and
// block size; steady-state decode jobs build nothing. A worker is
// confined to its shard's goroutine; jobs must not retain it.
type worker struct {
	decs  map[decoderKey]icode.Decoder
	built *atomic.Int64
}

// decoder returns the worker's decoder for nBits-bit blocks of code c
// (cached under key), reset to an empty symbol store.
func (w *worker) decoder(c icode.Code, key int64, nBits int) icode.Decoder {
	k := decoderKey{key, nBits}
	d, ok := w.decs[k]
	if !ok {
		d = c.NewDecoder(nBits)
		w.decs[k] = d
		w.built.Add(1)
		return d
	}
	d.Reset()
	return d
}

// NewCodecPool starts a pool of shards persistent workers for the spinal
// code of p (shards ≤ 0 means GOMAXPROCS). Call Close when done; an
// unreachable pool's workers are reclaimed automatically.
func NewCodecPool(p core.Params, shards int) *CodecPool {
	if shards <= 0 {
		shards = runtime.GOMAXPROCS(0)
	}
	cp := &CodecPool{
		w:     &codecWorkers{jobs: make([]chan func(*worker), shards)},
		code:  icode.Spinal(p),
		built: new(atomic.Int64),
	}
	// The goroutines capture only w and the counter — not cp — so an
	// abandoned handle is collectable and its cleanup stops the workers.
	w, built := cp.w, cp.built
	w.wg.Add(shards)
	for s := range w.jobs {
		// Buffered so a round of submissions rarely blocks the producer;
		// correctness does not depend on the capacity.
		jobs := make(chan func(*worker), 32)
		w.jobs[s] = jobs
		go func() {
			defer w.wg.Done()
			wk := &worker{decs: make(map[decoderKey]icode.Decoder), built: built}
			for job := range jobs {
				job(wk)
			}
		}()
	}
	runtime.AddCleanup(cp, func(w *codecWorkers) { w.stop() }, cp.w)
	return cp
}

// Shards reports the number of worker shards.
func (cp *CodecPool) Shards() int { return len(cp.w.jobs) }

// submit enqueues fn on shard (taken modulo the shard count, so any
// non-negative routing key works). It blocks only when the shard's queue
// is full. Jobs on one shard run in submission order; completion is the
// caller's to track (wrap fn with a WaitGroup).
func (cp *CodecPool) submit(shard int, fn func(*worker)) {
	cp.w.jobs[shard%len(cp.w.jobs)] <- fn
}

// Close stops the workers after draining queued jobs. Idempotent; submit
// after Close panics.
func (cp *CodecPool) Close() { cp.w.stop() }

// PoolStats counts decoder constructions since a pool started — the
// observable that proves workers reuse decoders instead of rebuilding
// them per attempt: each shard builds at most one decoder per code and
// distinct block size, no matter how many blocks it decodes.
type PoolStats struct {
	DecodersBuilt int64
}

// Stats reports the construction counter; safe to call concurrently
// with running jobs.
func (cp *CodecPool) Stats() PoolStats {
	return PoolStats{DecodersBuilt: cp.built.Load()}
}

// newKey hands out a decoder-cache key no other engine uses.
func (cp *CodecPool) newKey() int64 { return cp.keys.Add(1) }

// forEachShard runs fn once on every shard and returns when all have run.
// On a closed pool it does nothing: the workers and their caches are gone.
func (cp *CodecPool) forEachShard(fn func(*worker)) {
	cp.w.mu.Lock()
	defer cp.w.mu.Unlock()
	if cp.w.closed {
		return
	}
	var wg sync.WaitGroup
	wg.Add(cp.Shards())
	for s := range cp.Shards() {
		cp.submit(s, func(w *worker) {
			defer wg.Done()
			fn(w)
		})
	}
	wg.Wait()
}

// forget drops every decoder cached under key, on every shard.
func (cp *CodecPool) forget(key int64) {
	cp.forEachShard(func(w *worker) {
		for k := range w.decs {
			if k.code == key {
				delete(w.decs, k)
			}
		}
	})
}

// CachedDecoders reports how many decoders the shards hold, across every
// code and block size.
func (cp *CodecPool) CachedDecoders() int {
	var n atomic.Int64
	cp.forEachShard(func(w *worker) { n.Add(int64(len(w.decs))) })
	return int(n.Load())
}
