package core

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Codec is one CodecPool worker's private, reusable transmit/receive
// state: an encoder re-targeted with Encoder.Reset and a small cache of
// decoders keyed by message length (a Decoder's search scratch is sized
// for one nBits). A worker serves many messages, so steady-state encode
// and decode jobs build nothing — they reuse the warmed-up codecs.
//
// A Codec is confined to its worker goroutine; jobs must not retain it,
// nor retain slices returned by its codecs, past the job's return.
type Codec struct {
	p        Params
	enc      *Encoder
	decs     map[int]*Decoder
	encBuilt *atomic.Int64
	decBuilt *atomic.Int64
	// X is symbol scratch a job may use freely (e.g. as an AppendSymbols
	// destination); it persists across the worker's jobs.
	X []complex128
}

// Encoder returns the worker's encoder re-targeted at msg, creating it on
// first use. msg and nBits follow the NewEncoder rules.
func (c *Codec) Encoder(msg []byte, nBits int) *Encoder {
	if c.enc == nil {
		c.enc = NewEncoder(msg, nBits, c.p)
		c.encBuilt.Add(1)
		return c.enc
	}
	c.enc.Reset(msg, nBits)
	return c.enc
}

// Decoder returns the worker's decoder for nBits-bit messages, reset to
// an empty symbol store. Each distinct nBits gets one cached decoder per
// worker; repeated calls reuse it.
func (c *Codec) Decoder(nBits int) *Decoder {
	d, ok := c.decs[nBits]
	if !ok {
		d = NewDecoder(nBits, c.p)
		c.decs[nBits] = d
		c.decBuilt.Add(1)
		return d
	}
	d.Reset()
	return d
}

// CodecPool is a sharded pool of persistent codec workers: Submit hands a
// job to one shard's goroutine, which runs it with the shard's private
// Codec. Callers that route related work (all attempts for one code
// block, say) to a stable shard get the same warmed codecs every time,
// while independent shards run concurrently — the multi-flow link engine
// pattern, generalizing the per-worker codec reuse of sim.ParallelWith.
type CodecPool struct {
	w        *codecWorkers
	encBuilt *atomic.Int64
	decBuilt *atomic.Int64
}

// codecWorkers is the shutdown-owning half of a pool. It is referenced by
// neither the worker goroutines (each holds only its own job channel) nor
// the runtime cleanup's target, so an abandoned CodecPool handle becomes
// unreachable, its cleanup fires, and the workers exit.
type codecWorkers struct {
	jobs     []chan func(*Codec)
	wg       sync.WaitGroup
	stopOnce sync.Once
}

func (w *codecWorkers) stop() {
	w.stopOnce.Do(func() {
		for _, c := range w.jobs {
			close(c)
		}
		w.wg.Wait()
	})
}

// NewCodecPool starts a pool of shards persistent workers sharing the
// given code parameters (shards ≤ 0 means GOMAXPROCS). Call Close when
// done; an unreachable pool's workers are reclaimed automatically.
func NewCodecPool(p Params, shards int) *CodecPool {
	if shards <= 0 {
		shards = runtime.GOMAXPROCS(0)
	}
	p = p.withDefaults()
	cp := &CodecPool{
		w:        &codecWorkers{jobs: make([]chan func(*Codec), shards)},
		encBuilt: new(atomic.Int64),
		decBuilt: new(atomic.Int64),
	}
	// The goroutines capture only w and the counters — not cp — so an
	// abandoned handle is collectable and its cleanup stops the workers.
	w, encBuilt, decBuilt := cp.w, cp.encBuilt, cp.decBuilt
	w.wg.Add(shards)
	for s := range w.jobs {
		// Buffered so a round of submissions rarely blocks the producer;
		// correctness does not depend on the capacity.
		jobs := make(chan func(*Codec), 32)
		w.jobs[s] = jobs
		go func() {
			defer w.wg.Done()
			c := &Codec{
				p:        p,
				decs:     make(map[int]*Decoder),
				encBuilt: encBuilt,
				decBuilt: decBuilt,
			}
			for job := range jobs {
				job(c)
			}
		}()
	}
	runtime.AddCleanup(cp, func(w *codecWorkers) { w.stop() }, cp.w)
	return cp
}

// Shards reports the number of worker shards.
func (cp *CodecPool) Shards() int { return len(cp.w.jobs) }

// Submit enqueues fn on shard (taken modulo the shard count, so any
// non-negative routing key works). It blocks only when the shard's queue
// is full. Jobs on one shard run in submission order; completion is the
// caller's to track (wrap fn with a WaitGroup).
func (cp *CodecPool) Submit(shard int, fn func(*Codec)) {
	cp.w.jobs[shard%len(cp.w.jobs)] <- fn
}

// Close stops the workers after draining queued jobs. Idempotent; Submit
// after Close panics.
func (cp *CodecPool) Close() { cp.w.stop() }

// CodecPoolStats counts codec constructions since the pool started —
// the observable that proves workers reuse codecs instead of rebuilding
// them per job (each shard builds at most one encoder plus one decoder
// per distinct message length, no matter how many jobs it runs).
type CodecPoolStats struct {
	EncodersBuilt int64
	DecodersBuilt int64
}

// Stats reports construction counters; safe to call concurrently with
// running jobs.
func (cp *CodecPool) Stats() CodecPoolStats {
	return CodecPoolStats{
		EncodersBuilt: cp.encBuilt.Load(),
		DecodersBuilt: cp.decBuilt.Load(),
	}
}
