package main

import (
	"context"
	"errors"
	"fmt"
	"hash/crc32"
	"net"
	"os"
	"time"

	"spinal/daemon"
)

// Resubmission policy: a flow unanswered for resubmitAfter is submitted
// again (spinald deduplicates by (conn, seq)), at most maxResubmits
// times; after that it counts as failed with no answer.
const (
	resubmitAfter = 5 * time.Second
	maxResubmits  = 3
)

// req is one client request: payload submitted as flow (conn, seq).
type req struct {
	conn, seq uint32
	payload   []byte
	crc       uint32
}

func newReq(conn, seq uint32, payload []byte) req {
	return req{conn: conn, seq: seq, payload: payload, crc: crc32.ChecksumIEEE(payload)}
}

// id is the request's trace id, conn/seq.
func (r req) id() string { return fmt.Sprintf("%d/%d", r.conn, r.seq) }

func flowKey(conn, seq uint32) uint64 { return uint64(conn)<<32 | uint64(seq) }

// phaseResult is what one closed-loop phase saw.
type phaseResult struct {
	lat       []float64 // µs per successful flow, submit to verified record
	recs      []record  // the first record of each flow, by request index
	ok        int       // delivered and verified (or, for a bare phase, rejected as expected)
	failed    int       // outage, rejected, error, corrupt or unanswered
	corrupt   int       // delivered with a length or CRC-32 mismatch
	resubmits int
	bytes     int64
	symbols   int64 // forward plus ack symbols of every answered flow
	wall      time.Duration
}

// client speaks the spinald grammar over one connected UDP socket.
type client struct {
	conn *net.UDPConn
	buf  []byte
	recs []record
}

func dialClient(addr *net.UDPAddr) (*client, error) {
	conn, err := net.DialUDP("udp", nil, addr)
	if err != nil {
		return nil, fmt.Errorf("dial spinald: %w", err)
	}
	// Headroom for bursts of result batches under saturation; the kernel
	// caps it silently if the limit is lower.
	_ = conn.SetReadBuffer(4 << 20)
	return &client{conn: conn, buf: make([]byte, 64<<10)}, nil
}

func (c *client) close() error { return c.conn.Close() }

// run drives reqs through spinald as a closed loop with outstanding flows
// in flight: the next request is submitted only when one resolves. A bare
// phase sends empty payloads, which spinald answers StatusRejected without
// touching the link; that answer is the expected one there. It returns an
// error only when the phase cannot complete before deadline or ctx ends.
func (c *client) run(ctx context.Context, reqs []req, outstanding int, bare bool, deadline time.Time, tr *tracer, spanName string) (phaseResult, error) {
	res := phaseResult{recs: make([]record, len(reqs)), lat: make([]float64, 0, len(reqs))}
	index := make(map[uint64]int, len(reqs))
	for i, r := range reqs {
		index[flowKey(r.conn, r.seq)] = i
	}
	first := make([]time.Time, len(reqs))
	last := make([]time.Time, len(reqs))
	tries := make([]int, len(reqs))
	done := make([]bool, len(reqs))
	inflight := make([]int, 0, outstanding)
	out := make([]byte, 0, submitHeader+64<<10)

	submit := func(i int, now time.Time) error {
		r := reqs[i]
		out = appendSubmit(out[:0], r.conn, r.seq, r.payload)
		last[i] = now
		if first[i].IsZero() {
			first[i] = now
		}
		_, err := c.conn.Write(out)
		return err
	}
	next := 0
	fill := func(now time.Time) error {
		for next < len(reqs) && len(inflight) < outstanding {
			if err := submit(next, now); err != nil {
				return fmt.Errorf("submit: %w", err)
			}
			inflight = append(inflight, next)
			next++
		}
		return nil
	}
	resolve := func(i int) {
		done[i] = true
		for k, j := range inflight {
			if j == i {
				inflight[k] = inflight[len(inflight)-1]
				inflight = inflight[:len(inflight)-1]
				break
			}
		}
	}

	start := time.Now()
	if err := fill(start); err != nil {
		return res, err
	}
	resolved := 0
	for resolved < len(reqs) {
		if err := ctx.Err(); err != nil {
			return res, err
		}
		now := time.Now()
		if now.After(deadline) {
			return res, fmt.Errorf("phase timed out with %d of %d flows unresolved", len(reqs)-resolved, len(reqs))
		}
		// Resubmit or give up on flows that have waited too long.
		for k := 0; k < len(inflight); k++ {
			i := inflight[k]
			if now.Sub(last[i]) < resubmitAfter {
				continue
			}
			if tries[i] >= maxResubmits {
				fmt.Fprintf(os.Stderr, "bench: flow conn=%d seq=%d unanswered after %d resubmits\n", reqs[i].conn, reqs[i].seq, tries[i])
				res.failed++
				resolved++
				resolve(i)
				k--
				continue
			}
			tries[i]++
			res.resubmits++
			if err := submit(i, now); err != nil {
				return res, fmt.Errorf("resubmit: %w", err)
			}
		}
		if err := fill(now); err != nil {
			return res, err
		}

		_ = c.conn.SetReadDeadline(now.Add(100 * time.Millisecond))
		n, err := c.conn.Read(c.buf)
		if err != nil {
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				continue
			}
			return res, fmt.Errorf("read: %w", err)
		}
		at := time.Now()
		c.recs, err = parseBatch(c.recs, c.buf[:n])
		if err != nil {
			return res, err
		}
		for _, rec := range c.recs {
			i, known := index[flowKey(rec.conn, rec.seq)]
			if !known || done[i] {
				continue // a duplicate, or a record of another phase
			}
			resolve(i)
			resolved++
			res.recs[i] = rec
			res.symbols += int64(rec.symbols) + int64(rec.ackSymbols)
			r := reqs[i]
			good := false
			switch {
			case bare:
				good = rec.status == daemon.StatusRejected
			case rec.status != daemon.StatusDelivered:
			case int(rec.bytes) != len(r.payload) || rec.crc != r.crc:
				res.corrupt++
				fmt.Fprintf(os.Stderr, "bench: corrupt delivery conn=%d seq=%d: %d bytes crc %08x, want %d bytes crc %08x\n",
					rec.conn, rec.seq, rec.bytes, rec.crc, len(r.payload), r.crc)
			default:
				good = true
			}
			if !good {
				res.failed++
				continue
			}
			res.ok++
			res.bytes += int64(rec.bytes)
			res.lat = append(res.lat, float64(at.Sub(first[i]).Nanoseconds())/1e3)
			if tr != nil {
				tr.add(r.id(), 0, spanName, first[i], at)
			}
		}
		if err := fill(at); err != nil {
			return res, err
		}
	}
	res.wall = time.Since(start)
	return res, nil
}
