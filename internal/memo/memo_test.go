package memo

import (
	"sync"
	"sync/atomic"
	"testing"
)

// TestMemoBuildsOncePerKey: concurrent Gets of three keys build each
// value exactly once and all see the same value.
func TestMemoBuildsOncePerKey(t *testing.T) {
	var builds atomic.Int64
	m := New(func(k int) *int {
		builds.Add(1)
		v := k * k
		return &v
	})
	got := make([]*int, 24)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = m.Get(i % 3)
		}()
	}
	wg.Wait()
	if n := builds.Load(); n != 3 {
		t.Fatalf("built %d values for 3 keys", n)
	}
	for i, v := range got {
		if v != got[i%3] || *v != (i%3)*(i%3) {
			t.Fatalf("Get(%d) = %d, not the shared value", i%3, *v)
		}
	}
}
