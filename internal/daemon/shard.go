package daemon

import (
	"context"
	"errors"
	"hash/crc32"
	"net"
	"net/netip"
	"os"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"spinal/channel"
	"spinal/link"
)

// batchRecords caps the result records in one datagram (32 records are
// 867 bytes, inside any path MTU).
const batchRecords = 32

// maxBurst bounds the submissions a shard admits between two rounds, so
// a steady stream of arrivals cannot starve the flows in flight.
const maxBurst = 1024

// pendingFlow tracks one in-flight flow's identity so its engine result
// can be turned back into a wire record.
type pendingFlow struct {
	key  uint64
	conn uint32
	seq  uint32
	from netip.AddrPort
}

// shard is one per-core worker: a socket and an independent
// link.Session, both owned by one goroutine (loop). The metrics endpoint
// reads the session snapshot the loop last published and the shard's
// two atomic dedup counters.
type shard struct {
	d    *Daemon
	id   int
	conn *net.UDPConn
	rc   syscall.RawConn
	sess *link.Session

	// Owned by loop.
	buf      []byte                      // the datagram being read
	out      map[netip.AddrPort][]record // the round's records by destination
	wbuf     []byte                      // one batch datagram
	flushed  bool                        // the drain signal has been sent
	inflight map[link.FlowID]*pendingFlow
	pending  map[uint64]struct{} // flowKey → in flight (dedup)
	done     map[uint64]doneRec  // flowKey → resolved record (replay)
	// doneRing holds the done keys in resolution order, at most
	// Config.DoneCache of them; once full, doneHead is the oldest.
	doneRing []uint64
	doneHead int

	dupes   atomic.Int64
	replays atomic.Int64

	// snap is the session's Metrics as of the loop's last admission
	// burst or round, so a telemetry read never waits out a round in
	// progress (a B=256 round of multi-block flows takes tens of ms).
	snapMu sync.Mutex
	snap   link.Metrics
}

// doneRec is a resolved flow's record as the done cache keeps it, in 16
// bytes: its conn and seq are the cache key, its shard is the shard's
// own id, and a delivered payload is at most maxPayload bytes.
type doneRec struct {
	bytes      uint16
	status     uint8
	symbols    uint32
	ackSymbols uint32
	checksum   uint32
}

func newShard(d *Daemon, id int, conn *net.UDPConn) (*shard, error) {
	rc, err := conn.SyscallConn()
	if err != nil {
		return nil, err
	}
	opts := []link.Option{
		// Codec work runs on the shard's own goroutine: the shards'
		// sessions share no work, so one shard's decode never delays
		// another's round.
		link.WithCodecPool(1),
		link.WithSeed(d.cfg.Seed + int64(id)),
		// Half-duplex accounting: each record's ackSymbols carries the
		// flow's reverse airtime, so clients compute honest goodput.
		link.WithHalfDuplex(0),
	}
	if d.cfg.MaxBlockBits > 0 {
		opts = append(opts, link.WithMaxBlockBits(d.cfg.MaxBlockBits))
	}
	if d.cfg.MaxRounds > 0 {
		opts = append(opts, link.WithMaxRounds(d.cfg.MaxRounds))
	}
	if d.cfg.FrameSymbols > 0 {
		opts = append(opts, link.WithFrameSymbols(d.cfg.FrameSymbols))
	}
	if d.cfg.Faults != nil {
		opts = append(opts, link.WithFaults(*d.cfg.Faults))
	}
	if d.cfg.Scheduler == "dwfq" {
		opts = append(opts, link.WithScheduler(link.SchedulerConfig{}))
	}
	sess, err := link.NewSession(d.cfg.Params, opts...)
	if err != nil {
		return nil, err
	}
	return &shard{
		d:        d,
		id:       id,
		conn:     conn,
		rc:       rc,
		sess:     sess,
		buf:      make([]byte, 64<<10),
		out:      make(map[netip.AddrPort][]record),
		inflight: make(map[link.FlowID]*pendingFlow),
		pending:  make(map[uint64]struct{}),
		done:     make(map[uint64]doneRec),
	}, nil
}

// loop is the shard's one goroutine. Each pass admits what the shard's
// socket holds, steps the session while flows are live and writes the
// round's records; an idle shard parks in the runtime poller until a
// submission arrives. Once the daemon drains and the shard's flows have
// resolved it tells Shutdown, and it answers late submissions with
// StatusRejected until Shutdown stops it. A drain that times out stops
// the shard after its current round.
func (sh *shard) loop() {
	d := sh.d
	defer d.shardWG.Done()
	defer sh.sess.Close()
	defer sh.signalFlushed()
	ctx := context.Background()
	for {
		ok := sh.read(sh.sess.Active() == 0)
		sh.publish()
		if ok && sh.sess.Active() > 0 {
			res, err := sh.sess.Step(ctx)
			ok = err == nil
			sh.finish(res)
			sh.publish()
		}
		sh.flush()
		switch state := d.state.Load(); {
		case !ok || state == stateStopped:
			return
		case state == stateDraining && sh.sess.Active() == 0:
			sh.signalFlushed()
		}
	}
}

// publish takes the session's snapshot for the telemetry endpoint.
func (sh *shard) publish() {
	m := sh.sess.Metrics()
	sh.snapMu.Lock()
	sh.snap = m
	sh.snapMu.Unlock()
}

// signalFlushed tells Shutdown, once, that the shard has no flow left.
func (sh *shard) signalFlushed() {
	if !sh.flushed {
		sh.flushed = true
		sh.d.flushed <- struct{}{}
	}
}

// read handles the datagrams waiting on the shard's socket, at most
// maxBurst of them; with block set (the shard is idle) it first parks
// until one arrives. It reports false once the daemon has stopped or
// the socket has failed.
func (sh *shard) read(block bool) bool {
	d := sh.d
	for range maxBurst {
		n, from, err := recvFrom(sh.rc, sh.buf, block)
		switch {
		case errors.Is(err, os.ErrDeadlineExceeded):
			// Shutdown's wake. Clear it before looking at the state, so a
			// wake that lands after the look is not lost.
			sh.conn.SetReadDeadline(time.Time{})
			return d.state.Load() != stateStopped
		case err != nil:
			return false
		case n < 0:
			return true // the socket is empty
		}
		block = false
		d.datagramsIn.Add(1)
		sub, err := parseSubmit(sh.buf[:n])
		switch {
		case err != nil:
			d.parseErrors.Add(1)
		case d.state.Load() != stateRunning:
			// Draining: stop accepting, but answer — the client learns
			// immediately instead of burning its retry budget.
			d.rejected.Add(1)
			sh.send(from, record{conn: sub.conn, seq: sub.seq, shard: uint16(sh.id), status: StatusRejected})
		default:
			sh.admit(sub, from)
		}
	}
	return true
}

// send queues a record for the end of the round.
func (sh *shard) send(to netip.AddrPort, rec record) {
	sh.out[to] = append(sh.out[to], rec)
}

// flush writes the round's records from the shard's socket, at most
// batchRecords of them to a datagram.
func (sh *shard) flush() {
	for to, recs := range sh.out {
		for len(recs) > 0 {
			n := min(len(recs), batchRecords)
			sh.wbuf = appendBatch(sh.wbuf[:0], recs[:n])
			if _, err := sh.conn.WriteToUDPAddrPort(sh.wbuf, to); err == nil {
				sh.d.datagramsOut.Add(1)
				sh.d.recordsOut.Add(int64(n))
			}
			recs = recs[n:]
		}
	}
	clear(sh.out)
}

// admit turns a submission into a link flow — or, for a retry of a flow
// already seen, into a dedup hit: in-flight duplicates are dropped (the
// original will answer), resolved duplicates get their cached record
// replayed. This is what makes the client's bounded-retry loop safe.
func (sh *shard) admit(msg submission, from netip.AddrPort) {
	key := flowKey(msg.conn, msg.seq)
	if dr, ok := sh.done[key]; ok {
		sh.replays.Add(1)
		sh.send(from, record{
			conn: msg.conn, seq: msg.seq, shard: uint16(sh.id),
			status: dr.status, bytes: uint32(dr.bytes), symbols: dr.symbols,
			ackSymbols: dr.ackSymbols, checksum: dr.checksum,
		})
		return
	}
	if _, ok := sh.pending[key]; ok {
		sh.dupes.Add(1)
		return
	}
	if len(msg.payload) == 0 {
		sh.send(from, record{
			conn: msg.conn, seq: msg.seq, shard: uint16(sh.id),
			status: StatusRejected,
		})
		return
	}
	snr := sh.d.cfg.SNRdB
	sendOpts := []link.Option{
		// The flow's medium is seeded from its identity alone, never from
		// arrival order — determinism the goodput experiment relies on.
		link.WithChannel(channel.NewAWGN(snr, sh.d.cfg.flowSeed(msg.conn, msg.seq))),
		link.WithRatePolicy(link.CapacityRate{SNREstimateDB: snr}),
	}
	if w := int(msg.weight); w > 1 {
		// Weight 0 and 1 are both the default share; under a round-robin
		// daemon the engine ignores the option entirely.
		sendOpts = append(sendOpts, link.WithWeight(w))
	}
	// The payload aliases the read buffer, and the session keeps it until
	// the flow resolves.
	id, err := sh.sess.Send(append([]byte(nil), msg.payload...), sendOpts...)
	if err != nil {
		sh.send(from, record{
			conn: msg.conn, seq: msg.seq, shard: uint16(sh.id),
			status: StatusError,
		})
		return
	}
	sh.pending[key] = struct{}{}
	sh.inflight[id] = &pendingFlow{key: key, conn: msg.conn, seq: msg.seq, from: from}
}

// finish converts resolved flows into wire records, caches each record
// for retry replay, and queues it for the end of the round.
func (sh *shard) finish(results []link.Result) {
	for i := range results {
		r := &results[i]
		pf := sh.inflight[r.ID]
		if pf == nil {
			continue
		}
		delete(sh.inflight, r.ID)
		delete(sh.pending, pf.key)

		rec := record{
			conn:       pf.conn,
			seq:        pf.seq,
			shard:      uint16(sh.id),
			symbols:    uint32(r.Stats.SymbolsSent),
			ackSymbols: uint32(r.Stats.AckSymbols),
		}
		switch {
		case r.Err == nil:
			rec.status = StatusDelivered
			rec.bytes = uint32(len(r.Datagram))
			rec.checksum = crc32.ChecksumIEEE(r.Datagram)
		case errors.Is(r.Err, link.ErrFlowBudget):
			rec.status = StatusOutage
		default:
			rec.status = StatusError
		}
		sh.remember(pf.key, rec)
		sh.send(pf.from, rec)
	}
}

// remember caches a resolved record for replay, evicting the oldest at
// the configured cap (Config.DoneCache). The ring of keys grows with the
// cache up to the cap and is then overwritten in place, so the cache's
// memory is bounded by the cap, not by the flows served.
func (sh *shard) remember(key uint64, rec record) {
	if limit := sh.d.cfg.DoneCache; len(sh.doneRing) < limit {
		if len(sh.doneRing) == cap(sh.doneRing) {
			grown := make([]uint64, len(sh.doneRing), min(max(2*cap(sh.doneRing), 256), limit))
			copy(grown, sh.doneRing)
			sh.doneRing = grown
		}
		sh.doneRing = append(sh.doneRing, key)
	} else {
		delete(sh.done, sh.doneRing[sh.doneHead])
		sh.doneRing[sh.doneHead] = key
		sh.doneHead = (sh.doneHead + 1) % limit
	}
	sh.done[key] = doneRec{status: rec.status, bytes: uint16(rec.bytes), symbols: rec.symbols,
		ackSymbols: rec.ackSymbols, checksum: rec.checksum}
}

// metrics reports the shard for the telemetry endpoint. The session
// snapshot was taken between rounds, so its counts agree with each
// other, and it stays readable after the shard has stopped.
func (sh *shard) metrics() ShardMetrics {
	sh.snapMu.Lock()
	sm := sh.snap
	sh.snapMu.Unlock()
	t, s := sm.Totals, sm.Scheduler
	return ShardMetrics{
		Shard:           sh.id,
		Active:          sm.Active,
		Admitted:        int64(sm.Admitted),
		Delivered:       int64(sm.Delivered),
		Outaged:         int64(sm.Failed),
		DupSubmits:      sh.dupes.Load(),
		Replays:         sh.replays.Load(),
		Bytes:           int64(sm.BytesDelivered),
		Symbols:         int64(t.SymbolsSent),
		AckSymbols:      int64(t.AckSymbols),
		Retransmissions: int64(t.Retransmissions),
		BatchesRejected: int64(t.BatchesRejected),
		FrameFaults:     int64(t.Faults.Frames()),
		AckFaults:       int64(t.Faults.Acks()),
		DecodeAttempts:  int64(t.DecodeAttempts),
		NarrowAttempts:  int64(t.NarrowAttempts),
		Escalations:     int64(t.Escalations),
		DecodersBuilt:   sm.DecodersBuilt,
		KernelDrops:     kernelDrops(sh.conn),
		SchedQuanta:     s.QuantaGranted,
		SchedAdmitted:   s.SymbolsAdmitted,
		SchedAckCharged: s.AckSymbolsCharged,
		SchedDeadlines:  s.DeadlineMisses,
		SchedDeficit:    s.DeficitOutstanding,
	}
}
