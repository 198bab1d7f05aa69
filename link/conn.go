package link

import (
	"context"
	"errors"
	"io"
	"os"
	"sync"
	"time"

	"spinal"
	"spinal/channel"
)

// Conn is a streaming endpoint pair over a simulated medium: an
// io.Reader/io.Writer whose writes cross the configured channel.Model as
// rateless spinal datagrams and whose delivered bytes become readable.
// It is message-oriented underneath — each Write is one datagram, and
// bytes become readable in write order once their datagram's every code
// block has verified — but the Read side presents a plain byte stream,
// so a Conn drops into io.Copy and friends.
//
// Write is synchronous: it drives the link until the datagram delivers
// or its round budget (WithMaxRounds) is exhausted, in which case it
// returns the flow's error and nothing becomes readable. Without a read
// deadline, Read never blocks; like bytes.Buffer it returns io.EOF when
// nothing is buffered. With one (SetReadDeadline), Read blocks until
// bytes arrive from a concurrent Write, the Conn closes, or the deadline
// expires with os.ErrDeadlineExceeded — the net.Conn idiom, so transport
// retry loops need no hand-rolled timeout goroutines.
// A Conn serializes its methods with an internal mutex, so concurrent
// misuse resolves into typed errors — a second Close returns ErrClosed,
// a Write racing another Write waits its turn — rather than data races;
// it is still one logical stream, not a concurrency primitive.
type Conn struct {
	s   *Session
	ctx context.Context

	mu        sync.Mutex
	cond      *sync.Cond // signals readers: bytes buffered, deadline moved, or closed
	buf       []byte
	off       int
	delivered int // payload bytes delivered to the reader across the Conn's lifetime
	closed    bool

	readDeadline  time.Time
	writeDeadline time.Time
	rdTimer       *time.Timer // wakes blocked readers at the read deadline
}

// Dial opens a Conn over model with the given code parameters. Options
// configure the underlying Session (rate policies, feedback, half-duplex
// accounting, ...); model takes precedence over any WithChannel among
// them. A nil model means noiseless.
func Dial(p spinal.Params, model channel.Model, opts ...Option) (*Conn, error) {
	return DialContext(context.Background(), p, model, opts...)
}

// DialContext is Dial with a context that bounds every transfer made
// through the Conn: once ctx is done, in-progress and future Writes fail.
func DialContext(ctx context.Context, p spinal.Params, model channel.Model, opts ...Option) (*Conn, error) {
	opts = append(opts, WithChannel(model))
	s, err := NewSession(p, opts...)
	if err != nil {
		return nil, err
	}
	c := &Conn{s: s, ctx: ctx}
	c.cond = sync.NewCond(&c.mu)
	return c, nil
}

// Write transmits p as one rateless datagram across the Conn's channel
// and buffers the delivered bytes for Read. It reports len(p) on
// delivery; on budget exhaustion or cancellation it reports 0 with the
// flow's (or context's) error, and the link stays usable.
func (c *Conn) Write(p []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return 0, ErrClosed
	}
	// The engine retains the datagram while the flow is live; copy so the
	// caller may reuse p immediately, as io.Writer allows.
	id, err := c.s.Send(append([]byte(nil), p...))
	if err != nil {
		return 0, err
	}
	ctx := c.ctx
	if wd := c.writeDeadline; !wd.IsZero() {
		var cancel context.CancelFunc
		ctx, cancel = context.WithDeadline(ctx, wd)
		defer cancel()
	}
	results, err := c.s.Drain(ctx)
	if errors.Is(err, context.DeadlineExceeded) && !c.writeDeadline.IsZero() {
		err = os.ErrDeadlineExceeded
	}
	var mine *Result
	for i := range results {
		if results[i].ID == id {
			mine = &results[i]
		}
	}
	if mine == nil {
		if err == nil {
			err = ErrIncomplete
		}
		return 0, err
	}
	if mine.Err != nil {
		return 0, mine.Err
	}
	c.delivered += len(mine.Datagram)
	c.buf = append(c.buf, mine.Datagram...)
	c.cond.Broadcast() // wake readers blocked on a read deadline
	return len(p), nil
}

// Read drains delivered bytes in write order. Without a read deadline it
// returns io.EOF when nothing is buffered (bytes.Buffer semantics —
// Write first, then Read). With one it blocks until bytes arrive, the
// Conn closes (ErrClosed), or the deadline passes
// (os.ErrDeadlineExceeded); a deadline already in the past fails
// immediately, the net.Conn way to cancel pending reads.
func (c *Conn) Read(p []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for {
		if c.off < len(c.buf) {
			n := copy(p, c.buf[c.off:])
			c.off += n
			return n, nil
		}
		rd := c.readDeadline
		if rd.IsZero() {
			c.buf, c.off = c.buf[:0], 0
			return 0, io.EOF
		}
		if !time.Now().Before(rd) {
			return 0, os.ErrDeadlineExceeded
		}
		if c.closed {
			return 0, ErrClosed
		}
		c.cond.Wait()
	}
}

// SetDeadline sets both the read and write deadlines (net.Conn
// semantics; the zero time clears them).
func (c *Conn) SetDeadline(t time.Time) error {
	if err := c.SetReadDeadline(t); err != nil {
		return err
	}
	return c.SetWriteDeadline(t)
}

// SetReadDeadline bounds future (and currently blocked) Reads: while a
// deadline is set Read blocks for bytes and fails with
// os.ErrDeadlineExceeded once t passes; the zero time restores the
// non-blocking io.EOF behaviour. It may be called concurrently with a
// blocked Read — the reader re-evaluates against the new deadline.
func (c *Conn) SetReadDeadline(t time.Time) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return ErrClosed
	}
	c.readDeadline = t
	if c.rdTimer != nil {
		c.rdTimer.Stop()
		c.rdTimer = nil
	}
	if !t.IsZero() {
		d := time.Until(t)
		if d < 0 {
			d = 0
		}
		c.rdTimer = time.AfterFunc(d, func() {
			c.mu.Lock()
			c.cond.Broadcast()
			c.mu.Unlock()
		})
	}
	c.cond.Broadcast()
	return nil
}

// SetWriteDeadline bounds future Writes: a Write still draining the link
// when t passes fails with os.ErrDeadlineExceeded (its flow keeps
// transmitting and is accounted by a later Write's drain, exactly like a
// context cancellation). Write holds the Conn's mutex, so the new
// deadline applies from the next Write. The zero time clears it.
func (c *Conn) SetWriteDeadline(t time.Time) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return ErrClosed
	}
	c.writeDeadline = t
	return nil
}

// Stats reports the Conn's cumulative transfer statistics; Rate is
// aggregate payload bits per channel symbol (ack symbols included under
// half-duplex accounting).
func (c *Conn) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	// The session's totals count every flow it resolved, a canceled
	// Write's flow that resolved during a later Write included, so Rate
	// never overstates what the link spent. Its numerator is the bytes
	// delivered to the reader.
	st := c.s.Metrics().Totals
	if air := st.SymbolsSent + st.AckSymbols; air > 0 {
		st.Rate = float64(8*c.delivered) / float64(air)
	}
	return st
}

// Close releases the Conn's session. Buffered delivered bytes remain
// readable (Read does not take the closed path). A second Close returns
// ErrClosed, mirroring Session.Close.
func (c *Conn) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return ErrClosed
	}
	c.closed = true
	if c.rdTimer != nil {
		c.rdTimer.Stop()
		c.rdTimer = nil
	}
	c.cond.Broadcast() // readers blocked on a deadline see ErrClosed
	return c.s.Close()
}
