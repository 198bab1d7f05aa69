// Package memo caches values that are deterministic functions of a key
// and costly to build, such as the code constructions every encoder and
// decoder of one block size shares.
package memo

import "sync"

// Memo builds each key's value on first use and returns the cached one
// after that. It is safe for concurrent use. Builds run under its lock,
// so a build must not call back into the same Memo.
type Memo[K comparable, V any] struct {
	build func(K) V
	mu    sync.Mutex
	m     map[K]V
}

// New returns a Memo that builds missing values with build.
func New[K comparable, V any](build func(K) V) *Memo[K, V] {
	return &Memo[K, V]{build: build, m: make(map[K]V)}
}

// Get returns k's value, building it on the first call for k.
func (c *Memo[K, V]) Get(k K) V {
	c.mu.Lock()
	defer c.mu.Unlock()
	v, ok := c.m[k]
	if !ok {
		v = c.build(k)
		c.m[k] = v
	}
	return v
}
