package link

import (
	"runtime"
	"sync"
	"sync/atomic"

	icode "spinal/internal/code"
)

// codecPool is a sharded pool of persistent codec workers for one code:
// submit hands a job to one shard's goroutine, which runs it with the
// shard's private decoder cache, so steady-state jobs reuse warmed
// decoders while independent shards run concurrently. Each Engine owns
// one pool.
type codecPool struct {
	w     *codecWorkers
	built *atomic.Int64
}

// codecWorkers is the shutdown-owning half of a pool. It is referenced by
// neither the worker goroutines (each holds only its own job channel) nor
// the runtime cleanup's target, so an abandoned codecPool handle becomes
// unreachable, its cleanup fires, and the workers exit.
type codecWorkers struct {
	jobs []chan func(*worker)
	wg   sync.WaitGroup
	once sync.Once
}

func (w *codecWorkers) stop() {
	w.once.Do(func() {
		for _, c := range w.jobs {
			close(c)
		}
		w.wg.Wait()
	})
}

// worker is one shard's private state. A Decoder's search scratch is
// sized for one block size, so the cache holds one decoder per block
// size; steady-state decode jobs build nothing. A worker is confined to
// its shard's goroutine; jobs must not retain it.
type worker struct {
	code  icode.Code
	decs  map[int]icode.Decoder
	built *atomic.Int64
}

// decoder returns the worker's decoder for nBits-bit blocks, reset to an
// empty symbol store.
func (w *worker) decoder(nBits int) icode.Decoder {
	d, ok := w.decs[nBits]
	if !ok {
		d = w.code.NewDecoder(nBits)
		w.decs[nBits] = d
		w.built.Add(1)
		return d
	}
	d.Reset()
	return d
}

// newCodecPool starts a pool of shards persistent workers for code c
// (shards ≤ 0 means GOMAXPROCS). Call Close when done; an unreachable
// pool's workers are reclaimed automatically.
func newCodecPool(c icode.Code, shards int) *codecPool {
	if shards <= 0 {
		shards = runtime.GOMAXPROCS(0)
	}
	cp := &codecPool{
		w:     &codecWorkers{jobs: make([]chan func(*worker), shards)},
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
			wk := &worker{code: c, decs: make(map[int]icode.Decoder), built: built}
			for job := range jobs {
				job(wk)
			}
		}()
	}
	runtime.AddCleanup(cp, func(w *codecWorkers) { w.stop() }, cp.w)
	return cp
}

// Shards reports the number of worker shards.
func (cp *codecPool) Shards() int { return len(cp.w.jobs) }

// submit enqueues fn on shard (taken modulo the shard count). It blocks
// only when the shard's queue is full. Jobs on one shard run in
// submission order; completion is the caller's to track (wrap fn with a
// WaitGroup).
func (cp *codecPool) submit(shard int, fn func(*worker)) {
	cp.w.jobs[shard%len(cp.w.jobs)] <- fn
}

// Close stops the workers after draining queued jobs. Idempotent; submit
// after Close panics.
func (cp *codecPool) Close() { cp.w.stop() }

// PoolStats counts decoder constructions since a pool started — the
// observable that proves workers reuse decoders instead of rebuilding
// them per attempt: each shard builds at most one decoder per distinct
// block size, no matter how many blocks it decodes.
type PoolStats struct {
	DecodersBuilt int64
}

// Stats reports the construction counter; safe to call concurrently
// with running jobs.
func (cp *codecPool) Stats() PoolStats {
	return PoolStats{DecodersBuilt: cp.built.Load()}
}
