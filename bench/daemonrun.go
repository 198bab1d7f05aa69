package main

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"time"

	"spinal/daemon"
)

// setupRuns is how many times a run starts the system under test; setup_s
// is the median, so one slow exec does not move it.
const setupRuns = 21

// probeBytes is the set-up probe flow's payload on every daemon workload:
// the paper's packet, small enough that set-up time is start-up work and
// not one large flow's decode.
const probeBytes = 64

// bareFlows is the size of the traced run's bare-path probe: empty
// submissions spinald answers StatusRejected without touching the link.
const bareFlows = 2000

// daemonRun is what one pass over a daemon workload observed.
type daemonRun struct {
	setups              []float64 // seconds from exec to the probe's verified record
	w1Reqs, satReqs     []req
	w1Rounds, satRounds []phaseResult
	w1, sat             phaseResult // the rounds merged
	corrupt             int         // CRC-32 or length mismatches in any phase, warm-ups and probes included
	rss                 int64
	clean               bool // spinald reported a clean drain
	cpuSat              time.Duration
	cpuBare             time.Duration
	bare                phaseResult
	gcs                 int64
	queueMax            int
	final               daemon.Metrics
}

// runDaemon runs one pass over a daemon workload: rounds of a w1 chunk
// and a sat chunk on one spinald instance, until the measurement window
// b.window has passed. Untraced, it also starts and times setupRuns
// instances in all, the serving one first and the others, each stopped
// again, spread evenly over the window, so set-up time is sampled across
// the run and not in one burst. Traced, it starts spinald once with
// telemetry and gctrace on, records a client.flow span per flow, samples
// queue lengths and CPU, and ends with the bare-path probe.
func (b *bench) runDaemon(ctx context.Context, w workload, seed int64, tr *tracer) (d daemonRun, err error) {
	traced := tr != nil
	p, c, err := b.serve(ctx, w, seed, traced, &d)
	if err != nil {
		return d, err
	}
	defer func() {
		c.close()
		d.clean = p.stop()
	}()

	run := func(rq []req, out int, bare bool, name string, t *tracer) (phaseResult, error) {
		res, err := c.run(ctx, rq, out, bare, b.deadline, t, name)
		d.corrupt += res.corrupt
		return res, err
	}
	// setupDue reports whether the next extra set-up start is due: the
	// k-th of the setupRuns-1 extra starts falls k/setupRuns of the way
	// through the window.
	begin := time.Now()
	setupDue := func() bool {
		k := len(d.setups)
		return !traced && k < setupRuns && time.Since(begin) >= b.window*time.Duration(k)/setupRuns
	}

	pollCtx, stopPoll := context.WithCancel(ctx)
	polled := make(chan int, 1)
	if traced {
		go func() { polled <- p.pollQueues(pollCtx) }()
	} else {
		polled <- 0
	}
	// Round r's flows are drawn from the seed and r alone, so a seed's
	// flows are the same on every run; a faster program measures more of
	// them. The first chunk of each kind follows an untimed warm-up of
	// twice its outstanding count.
	gc0 := p.gcs.Load()
	for r := 0; err == nil && (r == 0 || time.Since(begin) < b.window); r++ {
		for err == nil && setupDue() {
			err = b.setupOnce(ctx, w, seed, &d)
		}
		if err != nil {
			break
		}
		if r == 0 {
			if _, err = run(phaseReqs(seed, seqWarmW1, 0, 2, w.size), 1, false, "", nil); err != nil {
				break
			}
		}
		w1Chunk := phaseReqs(seed, seqW1, r*w.w1Round, w.w1Round, w.size)
		var w1, sat phaseResult
		if w1, err = run(w1Chunk, 1, false, "client.flow", tr); err != nil {
			break
		}
		if r == 0 {
			if _, err = run(phaseReqs(seed, seqWarmSat, 0, 2*w.satOut, w.size), w.satOut, false, "", nil); err != nil {
				break
			}
		}
		satChunk := phaseReqs(seed, seqSat, r*w.satRound, w.satRound, w.size)
		cpu0 := p.cpuTime()
		sat, err = run(satChunk, w.satOut, false, "client.flow", tr)
		d.cpuSat += p.cpuTime() - cpu0
		d.w1Reqs = append(d.w1Reqs, w1Chunk...)
		d.satReqs = append(d.satReqs, satChunk...)
		d.w1Rounds = append(d.w1Rounds, w1)
		d.satRounds = append(d.satRounds, sat)
	}
	d.gcs = p.gcs.Load() - gc0
	stopPoll()
	d.queueMax = <-polled
	for err == nil && !traced && len(d.setups) < setupRuns {
		err = b.setupOnce(ctx, w, seed, &d)
	}
	if err != nil {
		return d, err
	}
	d.w1, d.sat = merge(d.w1Rounds), merge(d.satRounds)
	if traced {
		cpu0 := p.cpuTime()
		if d.bare, err = run(phaseReqs(seed, seqBare, 0, bareFlows, 0), 1, true, "client.bare", tr); err != nil {
			return d, err
		}
		d.cpuBare = p.cpuTime() - cpu0
		if d.final, err = p.metrics(ctx); err != nil {
			return d, fmt.Errorf("read /metrics: %w", err)
		}
	}
	d.rss, err = peakRSS(strconv.Itoa(p.pid()))
	return d, err
}

// serve starts spinald for workload w and times it from exec to the
// first verified record of a probe flow, appending the time to
// d.setups. It returns the serving process and a client connected to it.
// Every start gets its own probe flow, with its own payload and noise,
// so how many decode attempts one probe needs does not decide a run's
// set-up time.
func (b *bench) serve(ctx context.Context, w workload, seed int64, traced bool, d *daemonRun) (*spinaldProc, *client, error) {
	t0 := time.Now()
	p, err := startSpinald(b.spinald, spinaldArgs(w.beam, seed, traced), traced)
	if err != nil {
		return nil, nil, err
	}
	c, err := dialClient(p.addr)
	if err == nil {
		var res phaseResult
		res, err = c.run(ctx, phaseReqs(seed, seqProbe, len(d.setups), 1, probeBytes), 1, false, b.deadline, nil, "")
		d.corrupt += res.corrupt
		if err == nil && res.ok != 1 {
			err = errors.New("spinald did not deliver the probe flow")
		}
		if err != nil {
			c.close()
		}
	}
	if err != nil {
		p.stop()
		return nil, nil, err
	}
	d.setups = append(d.setups, time.Since(t0).Seconds())
	return p, c, nil
}

// setupOnce times one more spinald start and stops that instance again.
func (b *bench) setupOnce(ctx context.Context, w workload, seed int64, d *daemonRun) error {
	p, c, err := b.serve(ctx, w, seed, false, d)
	if err != nil {
		return err
	}
	c.close()
	p.stop()
	return nil
}

// notes reports corrupt deliveries. spinald's records carry the CRC-32
// of what was delivered, so the client detects a wrong delivery: it is a
// failed flow, counted in failed where the flow was measured, and never
// a wrong output the benchmark accepted.
func (d *daemonRun) notes() []string {
	if d.corrupt == 0 {
		return nil
	}
	return []string{fmt.Sprintf("%d corrupt deliveries detected by the record's length and CRC-32 (printed on stderr)", d.corrupt)}
}

// endToEnd turns a daemon pass into the end-to-end metrics. Latency is
// read from all w1 flows of the run, throughput from all sat chunks
// together. On a shared machine a busy neighbour slows a vCPU by up to
// 1.6 times for seconds at a time, and the share of a run's flows that
// run at full speed swings between runs minutes apart, from under a
// tenth to two thirds: the median flips between the two speeds as that
// share crosses a half, while at least a third of the flows run slowed
// in every run, so the upper quartile stays on the slow speed and moves
// with the program. The p75 is therefore the gated latency; the
// median (kept for the layer table) and the highest percentile with ten
// flows beyond it are printed in its note.
func (d *daemonRun) endToEnd() (map[string]value, int, int) {
	m := map[string]value{}
	m["setup_s"] = value{v: median(d.setups), n: len(d.setups), note: "spread over the run"}
	lat := summarize(d.w1.lat)
	m["lat_p50_us"] = value{v: lat.p50, n: lat.n}
	m["lat_p75_us"] = value{v: quantile(sortedCopy(d.w1.lat), 0.75), n: lat.n,
		note: fmt.Sprintf("w1, %d rounds; p50 %.0f, %s", len(d.w1Rounds), lat.p50, lat.tailNote())}
	m["flows_per_s"] = value{v: float64(d.sat.ok) / d.sat.wall.Seconds(), n: d.sat.ok, note: "sat, all rounds"}
	m["payload_kBps"] = value{v: float64(d.sat.bytes) / d.sat.wall.Seconds() / 1e3, n: d.sat.ok, note: "sat, all rounds"}
	attempted := len(d.w1Reqs) + len(d.satReqs)
	ok := d.w1.ok + d.sat.ok
	m["bits_per_symbol"] = value{v: float64(8*(d.w1.bytes+d.sat.bytes)) / float64(d.w1.symbols+d.sat.symbols), n: attempted}
	m["delivered_ratio"] = value{v: float64(ok) / float64(attempted), n: attempted}
	m["rss_peak_MB"] = value{v: float64(d.rss) / 1e6, note: "spinald VmHWM"}
	return m, attempted, d.w1.failed + d.sat.failed
}

// merge pools consecutive chunks of one phase into one result; records
// stay in request order.
func merge(chunks []phaseResult) phaseResult {
	var out phaseResult
	for _, c := range chunks {
		out.lat = append(out.lat, c.lat...)
		out.recs = append(out.recs, c.recs...)
		out.ok += c.ok
		out.failed += c.failed
		out.corrupt += c.corrupt
		out.resubmits += c.resubmits
		out.bytes += c.bytes
		out.symbols += c.symbols
		out.wall += c.wall
	}
	return out
}
