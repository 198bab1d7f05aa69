package link_test

import (
	"context"
	"errors"
	"sync"
	"testing"

	"spinal"
	"spinal/channel"
	"spinal/link"
)

// orderingParams keeps the ordering tests' decode work trivial; they
// exercise locking, not the code.
func orderingParams() spinal.Params {
	p := spinal.DefaultParams()
	p.B = 8
	return p
}

// TestSessionDrainCloseOrdering pins the Close/Drain contract the
// daemon's shards rely on: Drain after Close, Send/Step/Drain during
// Drain, and double Close all resolve into typed errors (ErrClosed,
// ErrDraining) instead of racing. Run under -race, the concurrent halves
// double as a data-race probe on the session's serialization.
func TestSessionDrainCloseOrdering(t *testing.T) {
	s, err := link.NewSession(orderingParams(),
		link.WithChannel(channel.NewAWGN(12, 1)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Send([]byte("payload")); err != nil {
		t.Fatal(err)
	}

	// While one goroutine drains, Send, Step and a second Drain must get
	// ErrDraining (or observe the drain already finished — scheduling may
	// resolve the single flow before a contender arrives; anything except
	// an interleaved round or a race is correct).
	drained := make(chan error, 1)
	started := make(chan struct{})
	go func() {
		close(started)
		_, err := s.Drain(context.Background())
		drained <- err
	}()
	<-started
	var wg sync.WaitGroup
	for range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := s.Send([]byte("late")); err != nil &&
				!errors.Is(err, link.ErrDraining) {
				t.Errorf("Send during Drain = %v, want nil or ErrDraining", err)
			}
			if _, err := s.Step(context.Background()); err != nil &&
				!errors.Is(err, link.ErrDraining) {
				t.Errorf("Step during Drain = %v, want nil or ErrDraining", err)
			}
		}()
	}
	wg.Wait()
	if err := <-drained; err != nil {
		t.Fatalf("Drain: %v", err)
	}

	// Late flows admitted by racing Sends above may still be pending;
	// clear them so Close finds an idle session.
	if _, err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); !errors.Is(err, link.ErrClosed) {
		t.Fatalf("double Close = %v, want ErrClosed", err)
	}
	if _, err := s.Drain(context.Background()); !errors.Is(err, link.ErrClosed) {
		t.Fatalf("Drain after Close = %v, want ErrClosed", err)
	}
}

// TestSessionCloseInterruptsDrain pins the shutdown path: a Close landing
// while another goroutine drains takes effect at the next round boundary,
// and the drain reports ErrClosed with the results it had resolved.
func TestSessionCloseInterruptsDrain(t *testing.T) {
	s, err := link.NewSession(orderingParams(),
		// A hopeless channel plus a huge round budget keeps the drain
		// spinning until Close interrupts it.
		link.WithChannel(channel.NewAWGN(-20, 1)),
		link.WithMaxRounds(1<<20))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Send(make([]byte, 64)); err != nil {
		t.Fatal(err)
	}
	type drainOut struct {
		res []link.Result
		err error
	}
	done := make(chan drainOut, 1)
	go func() {
		res, err := s.Drain(context.Background())
		done <- drainOut{res, err}
	}()
	// Close blocks until the in-flight round finishes, then wins the
	// mutex; the drain must notice and stop.
	if err := s.Close(); err != nil {
		t.Fatalf("Close during Drain: %v", err)
	}
	out := <-done
	if !errors.Is(out.err, link.ErrClosed) {
		t.Fatalf("interrupted Drain err = %v, want ErrClosed", out.err)
	}
	if len(out.res) != 0 {
		t.Fatalf("hopeless flow resolved %d results before Close", len(out.res))
	}
}

// TestConnCloseTyped pins Conn's half of the contract.
func TestConnCloseTyped(t *testing.T) {
	c, err := link.Dial(orderingParams(), channel.NewAWGN(12, 3))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Write([]byte("hi")); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); !errors.Is(err, link.ErrClosed) {
		t.Fatalf("double Conn.Close = %v, want ErrClosed", err)
	}
	if _, err := c.Write([]byte("x")); !errors.Is(err, link.ErrClosed) {
		t.Fatalf("Write after Close = %v, want ErrClosed", err)
	}
}
