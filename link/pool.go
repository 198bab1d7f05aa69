package link

import (
	"spinal"
	ilink "spinal/internal/link"
)

// PoolStats counts decoder constructions since a pool started — the
// observable that proves workers reuse warmed decoders instead of
// rebuilding them per attempt (spinald exports it on its telemetry
// endpoint). It counts the decoders of every code the pool's sessions
// run.
type PoolStats = ilink.PoolStats

// CodecPool is a sharded pool of persistent codec workers that several
// Sessions can share — the daemon pattern: N per-core sessions, one
// warmed pool, so handing a flow from one session to another never cools
// the decoders. Each worker caches one decoder per code and block size.
// Sessions without WithCode run the pool's spinal code and share its
// decoders; a session with WithCode caches its own, and its Close drops
// them. Create the pool once, pass it to each session with
// WithSharedPool, and Close it after every sharing session has closed.
type CodecPool struct {
	p *ilink.CodecPool
}

// NewCodecPool starts a pool of shards persistent codec workers for the
// spinal code of p (shards ≤ 0 means GOMAXPROCS). Sessions sharing the
// pool without WithCode run that code.
func NewCodecPool(p spinal.Params, shards int) *CodecPool {
	return &CodecPool{p: ilink.NewCodecPool(p, shards)}
}

// Shards reports the number of worker shards.
func (cp *CodecPool) Shards() int { return cp.p.Shards() }

// Stats reports construction counters; safe to call concurrently with
// running sessions.
func (cp *CodecPool) Stats() PoolStats { return cp.p.Stats() }

// Close stops the workers after draining queued jobs. Idempotent; every
// session sharing the pool must be closed (or idle forever) first.
func (cp *CodecPool) Close() { cp.p.Close() }
