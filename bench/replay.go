package main

import (
	"bytes"
	"context"
	"runtime"
	"syscall"
	"time"

	"spinal"
	"spinal/channel"
	"spinal/link"
)

// The replays feed a workload's own inputs through each layer's public
// functions in this process, so a traced run can say where spinald's
// time goes without tracing inside it. Each replay must reproduce the
// symbols spinald spent on the same flows, or it measures a different
// program; the validity check in the traced run holds them to that.

const (
	snrDB = 10 // every daemon workload and the fetch run at 10 dB
	// Engine constants the core replay mirrors: the link's maximum code
	// block (CRC included), its shared-frame symbol budget, and a flow's
	// round budget.
	maxBlockBits = 1024
	frameSymbols = 4096
	flowRounds   = 512
)

// flowSeed is spinald's per-flow channel seed: the daemon seed mixed with
// the flow's (conn, seq) identity, so a flow's noise does not depend on
// arrival order. The replays must use the same seed to see the same
// channel.
func flowSeed(seed int64, conn, seq uint32) int64 {
	h := uint64(seed) ^ uint64(conn)*0x9e3779b97f4a7c15 ^ uint64(seq)*0xff51afd7ed558ccd
	return int64(h)
}

// crc16 is the link layer's per-block CRC (CCITT-FALSE: polynomial
// 0x1021, initial value 0xFFFF).
func crc16(data []byte) uint16 {
	crc := uint16(0xFFFF)
	for _, b := range data {
		crc ^= uint16(b) << 8
		for i := 0; i < 8; i++ {
			if crc&0x8000 != 0 {
				crc = crc<<1 ^ 0x1021
			} else {
				crc <<= 1
			}
		}
	}
	return crc
}

// codeBlocks splits a datagram the way the link layer does: blocks of at
// most maxBlockBits, each its payload followed by the big-endian CRC-16.
func codeBlocks(datagram []byte) [][]byte {
	per := (maxBlockBits - 16) / 8
	var out [][]byte
	for off := 0; off == 0 || off < len(datagram); off += per {
		p := datagram[off:min(off+per, len(datagram))]
		c := crc16(p)
		out = append(out, append(append([]byte(nil), p...), byte(c>>8), byte(c)))
	}
	return out
}

// coreStats accumulates the core replay's counts and timings.
type coreStats struct {
	decodeUS   []float64 // wall time of each Decode call
	decodes    int
	quantized  int
	blocks     int
	symbols    int
	encodeNS   int64
	transmitNS int64
	allocs     uint64 // heap objects allocated by Reset, Add and Decode
	busy       time.Duration
	flows      int
	flowSyms   []int // forward symbols per replayed flow, in order
}

// coreReplay holds decoders across flows the way a codec-pool worker
// keeps one per block size.
type coreReplay struct {
	p    spinal.Params
	decs map[int]*spinal.Decoder
	st   coreStats
	tr   *tracer
}

func newCoreReplay(p spinal.Params, tr *tracer) *coreReplay {
	return &coreReplay{p: p, decs: map[int]*spinal.Decoder{}, tr: tr}
}

// mallocs is the process's exact heap allocation count so far; reading it
// stops the world briefly, so it is read outside timed intervals.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

type coreBlock struct {
	bits  []byte
	nBits int
	enc   *spinal.Encoder
	sched *spinal.Schedule
	sub   int // symbols one subpass carries, as the rate policy sees it
	sent  int
	ids   []spinal.SymbolID
	syms  []complex128
	done  bool
}

// flow replays one datagram alone, round by round as a link engine
// serves a single flow: each round every undecoded block sends the
// subpasses link.CapacityRate asks for (until the frame budget is
// spent), the symbols cross the flow's AWGN channel in schedule order,
// and every block that received symbols is decoded afresh from all of
// its symbols. A block is done once the decoded bits equal the sent
// bits. Each block's work in a round (encode, transmit, decode) is one
// core.block span. It returns whether every block decoded.
func (c *coreReplay) flow(trace string, datagram []byte, chSeed int64) bool {
	rate := link.CapacityRate{SNREstimateDB: snrDB}
	awgn := channel.NewAWGN(snrDB, chSeed)
	var blocks []*coreBlock
	for _, bits := range codeBlocks(datagram) {
		b := &coreBlock{bits: bits, nBits: len(bits) * 8}
		b.sched = spinal.NewSchedule(c.p.NumSpine(b.nBits), c.p.Ways, c.p.Tail)
		b.sub = max(b.sched.SymbolsPerPass()/b.sched.Subpasses(), 1)
		blocks = append(blocks, b)
	}
	type item struct {
		b   *coreBlock
		ids []spinal.SymbolID
	}
	var items []item
	left := len(blocks)
	for round := 0; round < flowRounds && left > 0; round++ {
		items = items[:0]
		symbols := 0
		for _, b := range blocks {
			if b.done {
				continue
			}
			want := rate.SubpassBudget(b.nBits, b.sub, b.sent)
			var ids []spinal.SymbolID
			for k := 0; k < want; k++ {
				ids = append(ids, b.sched.NextSubpass()...)
			}
			b.sent += len(ids)
			symbols += len(ids)
			items = append(items, item{b: b, ids: ids})
			if symbols >= frameSymbols {
				break
			}
		}
		// The channel is drawn in item order, as in the engine; decoding
		// a block before the next block's symbols cross it changes nothing.
		for _, it := range items {
			if len(it.ids) == 0 {
				continue
			}
			if c.block(trace, it.b, it.ids, awgn) {
				left--
			}
		}
	}
	c.st.flows++
	syms := 0
	for _, b := range blocks {
		syms += b.sent
		c.st.blocks++
		c.st.symbols += b.sent
	}
	c.st.flowSyms = append(c.st.flowSyms, syms)
	return left == 0
}

// block is one block's work in one round: encode the new symbols, send
// them across the channel, and decode the block from every symbol it has
// received. It reports whether the block newly decoded.
func (c *coreReplay) block(trace string, b *coreBlock, ids []spinal.SymbolID, awgn *channel.AWGN) bool {
	span := c.tr.begin(trace, 0, "core.block")
	defer c.tr.end(span)

	t0 := time.Now()
	if b.enc == nil {
		b.enc = spinal.NewEncoder(b.bits, b.nBits, c.p)
	}
	x := b.enc.Symbols(ids)
	t1 := time.Now()
	c.st.encodeNS += t1.Sub(t0).Nanoseconds()
	c.st.busy += t1.Sub(t0)
	c.tr.add(trace, span, "core.encode", t0, t1)

	y := awgn.Transmit(x)
	t2 := time.Now()
	c.st.transmitNS += t2.Sub(t1).Nanoseconds()
	c.tr.add(trace, span, "channel.transmit", t1, t2)

	b.ids = append(b.ids, ids...)
	b.syms = append(b.syms, y...)
	dec := c.decs[b.nBits]
	if dec == nil {
		dec = spinal.NewDecoder(b.nBits, c.p)
		c.decs[b.nBits] = dec
	}
	a0 := mallocs()
	t3 := time.Now()
	dec.Reset()
	dec.Add(b.ids, b.syms)
	got, _ := dec.Decode()
	t4 := time.Now()
	c.st.allocs += mallocs() - a0
	c.st.busy += t4.Sub(t3)
	c.st.decodeUS = append(c.st.decodeUS, float64(t4.Sub(t3).Nanoseconds())/1e3)
	c.st.decodes++
	if dec.KernelUsed() == spinal.KernelQuantized {
		c.st.quantized++
	}
	c.tr.add(trace, span, "core.decode", t3, t4)
	b.done = bytes.Equal(got, b.bits)
	return b.done
}

// linkStats accumulates one link replay phase.
type linkStats struct {
	flows     int
	delivered int // resolved with exactly the bytes sent
	steps     int
	sendUS    []float64
	stepUS    []float64
	flowUS    []float64
	busy      time.Duration
	cpu       time.Duration
	wall      time.Duration
	allocs    uint64
	allocB    uint64
	flowSyms  []int // forward symbols per flow, by input order
}

// linkFlow is one flow a link replay sends.
type linkFlow struct {
	trace   string
	payload []byte
	chSeed  int64
}

// linkReplay sends flows through one link.Session configured like a
// spinald shard (half-duplex ack accounting, a two-worker codec pool,
// per-flow AWGN and CapacityRate), keeping outstanding flows in flight
// as a closed loop. With a tracer it records a replay.flow span per flow
// and a link.Step span per round, which is only meaningful at one
// outstanding flow.
func linkReplay(ctx context.Context, p spinal.Params, sessSeed int64, flows []linkFlow, outstanding int, tr *tracer) (linkStats, error) {
	st := linkStats{flows: len(flows), flowSyms: make([]int, len(flows))}
	sess, err := link.NewSession(p, link.WithCodecPool(2), link.WithSeed(sessSeed), link.WithHalfDuplex(0))
	if err != nil {
		return st, err
	}
	defer sess.Close()

	type live struct {
		idx   int
		start time.Time
		span  int
	}
	inflight := map[link.FlowID]live{}
	next := 0
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := selfCPU()
	start := time.Now()
	fill := func() error {
		for next < len(flows) && len(inflight) < outstanding {
			f := flows[next]
			span := tr.begin(f.trace, 0, "replay.flow")
			t0 := time.Now()
			id, err := sess.Send(f.payload,
				link.WithChannel(channel.NewAWGN(snrDB, f.chSeed)),
				link.WithRatePolicy(link.CapacityRate{SNREstimateDB: snrDB}))
			t1 := time.Now()
			if err != nil {
				return err
			}
			st.busy += t1.Sub(t0)
			st.sendUS = append(st.sendUS, float64(t1.Sub(t0).Nanoseconds())/1e3)
			tr.add(f.trace, span, "link.Send", t0, t1)
			inflight[id] = live{idx: next, start: t0, span: span}
			next++
		}
		return nil
	}
	if err := fill(); err != nil {
		return st, err
	}
	for len(inflight) > 0 {
		t0 := time.Now()
		results, err := sess.Step(ctx)
		t1 := time.Now()
		if err != nil {
			return st, err
		}
		st.steps++
		st.busy += t1.Sub(t0)
		st.stepUS = append(st.stepUS, float64(t1.Sub(t0).Nanoseconds())/1e3)
		if outstanding == 1 {
			for _, l := range inflight {
				tr.add(flows[l.idx].trace, l.span, "link.Step", t0, t1)
			}
		}
		for _, r := range results {
			l, ok := inflight[r.ID]
			if !ok {
				continue
			}
			delete(inflight, r.ID)
			st.flowSyms[l.idx] = r.Stats.SymbolsSent
			st.flowUS = append(st.flowUS, float64(t1.Sub(l.start).Nanoseconds())/1e3)
			if r.Err == nil && bytes.Equal(r.Datagram, flows[l.idx].payload) {
				st.delivered++
			}
			tr.end(l.span)
		}
		if err := fill(); err != nil {
			return st, err
		}
	}
	st.wall = time.Since(start)
	st.cpu = selfCPU() - cpu0
	runtime.ReadMemStats(&ms1)
	st.allocs = ms1.Mallocs - ms0.Mallocs
	st.allocB = ms1.TotalAlloc - ms0.TotalAlloc
	return st, nil
}

// selfCPU is this process's user plus system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
