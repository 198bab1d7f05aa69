package main

import (
	"context"
	"fmt"
	"math"
	"time"

	"spinal"
)

// us converts a duration to microseconds.
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// tableRow is one line of a layer table.
type tableRow struct {
	name string
	v    float64
	note string
}

// layerTable prints rows that add up to total, with the residual as an
// explicit unaccounted row, and returns that residual.
func layerTable(title, totalName string, total float64, totalNote string, rows []tableRow) ([]string, float64) {
	out := []string{title}
	sum := 0.0
	for _, r := range rows {
		sum += r.v
		out = append(out, fmt.Sprintf("  %-26s %12.1f  %s", r.name, r.v, r.note))
	}
	un := total - sum
	share := 0.0
	if total != 0 {
		share = 100 * un / total
	}
	out = append(out,
		fmt.Sprintf("  %-26s %12.1f  %.1f%% of the total", "unaccounted", un, share),
		fmt.Sprintf("  %-26s %12.1f  %s", "= "+totalName, total, totalNote))
	return out, un
}

func meanInts(xs []int) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := 0
	for _, x := range xs {
		s += x
	}
	return float64(s) / float64(len(xs))
}

// recordSymbols is the mean forward symbols spinald spent per flow on
// recs.
func recordSymbols(recs []record) float64 {
	xs := make([]int, len(recs))
	for i, r := range recs {
		xs[i] = int(r.symbols)
	}
	return meanInts(xs)
}

// checkReplay holds a replay's mean symbols to spinald's within 3%.
func checkReplay(what string, replay, daemon float64) (string, bool) {
	d := math.Abs(replay-daemon) / daemon
	ok := d <= 0.03
	verdict := "ok"
	if !ok {
		verdict = "FAIL"
	}
	return fmt.Sprintf("  %-34s replay %9.2f  spinald %9.2f  diff %5.2f%%  %s", what, replay, daemon, 100*d, verdict), ok
}

// coreMetrics reduces a core replay to its per-layer metrics.
func coreMetrics(m map[string]value, st *coreStats) {
	dec := summarize(st.decodeUS)
	s := sortedCopy(st.decodeUS)
	m["core.decode_p50_us"] = value{v: dec.p50, n: dec.n}
	m["core.decode_p99_us"] = value{v: quantile(s, 0.99), n: dec.n}
	m["core.decodes_per_block"] = value{v: float64(st.decodes) / float64(st.blocks), n: st.blocks}
	m["core.symbols_per_block"] = value{v: float64(st.symbols) / float64(st.blocks), n: st.blocks}
	m["core.encode_ns_per_symbol"] = value{v: float64(st.encodeNS) / float64(st.symbols), n: st.symbols}
	m["core.quantized_ratio"] = value{v: float64(st.quantized) / float64(st.decodes), n: st.decodes}
	m["core.busy_us_per_flow"] = value{v: us(st.busy) / float64(st.flows), n: st.flows}
	m["core.allocs_per_decode"] = value{v: float64(st.allocs) / float64(st.decodes), n: st.decodes}
	m["channel.transmit_ns_per_symbol"] = value{v: float64(st.transmitNS) / float64(st.symbols), n: st.symbols}
}

// traceDaemon is a daemon workload's traced run: the client phases with
// spans, the bare-path probe, then the core and link replays of the same
// flows once spinald has stopped. base is the untraced pass whose
// end-to-end numbers the layer tables add up to.
func (b *bench) traceDaemon(ctx context.Context, w workload, seed int64, base map[string]value, tr *tracer) (*result, error) {
	d, err := b.runDaemon(ctx, w, seed, tr)
	if err != nil {
		return nil, err
	}
	traced, attempted, failed := d.endToEnd()
	res := &result{workload: w.name, metrics: map[string]value{}, attempted: attempted, failed: failed, correct: true, report: d.notes()}
	m := res.metrics
	// A short window may have measured fewer flows than the replays take.
	w.replayW1, w.replaySat = min(w.replayW1, len(d.w1Reqs)), min(w.replaySat, len(d.satReqs))

	p := spinal.DefaultParams()
	p.B = w.beam
	core := newCoreReplay(p, tr)
	coreOK := 0
	for _, r := range d.w1Reqs[:w.replayW1] {
		if core.flow(r.id(), r.payload, flowSeed(seed, r.conn, r.seq)) {
			coreOK++
		}
	}
	toLink := func(rs []req) []linkFlow {
		out := make([]linkFlow, len(rs))
		for i, r := range rs {
			out[i] = linkFlow{trace: r.id(), payload: r.payload, chSeed: flowSeed(seed, r.conn, r.seq)}
		}
		return out
	}
	lw1, err := linkReplay(ctx, p, seed, toLink(d.w1Reqs[:w.replayW1]), 1, tr)
	if err != nil {
		return nil, fmt.Errorf("link replay at 1 outstanding: %w", err)
	}
	lsat, err := linkReplay(ctx, p, seed, toLink(d.satReqs[:w.replaySat]), w.satOut, nil)
	if err != nil {
		return nil, fmt.Errorf("link replay at %d outstanding: %w", w.satOut, err)
	}

	coreMetrics(m, &core.st)
	flows := float64(w.replayW1)
	sendP := summarize(lw1.sendUS)
	step := summarize(lw1.stepUS)
	flow := summarize(lw1.flowUS)
	m["link.send_us"] = value{v: sendP.p50, n: sendP.n, note: "p50"}
	m["link.step_p50_us"] = value{v: step.p50, n: step.n}
	m["link.step_p99_us"] = value{v: quantile(sortedCopy(lw1.stepUS), 0.99), n: step.n}
	m["link.rounds_per_flow"] = value{v: float64(lw1.steps) / flows, n: lw1.flows}
	m["link.flow_p50_us"] = value{v: flow.p50, n: flow.n, note: "1 outstanding"}
	satN := float64(lsat.flows)
	m["link.busy_us_per_flow"] = value{v: us(lsat.busy) / satN, n: lsat.flows, note: fmt.Sprintf("%d outstanding", w.satOut)}
	m["link.cpu_us_per_flow"] = value{v: us(lsat.cpu) / satN, n: lsat.flows}
	channelPerFlow := float64(core.st.transmitNS) / float64(core.st.flows) / 1e3
	m["link.overhead_us_per_flow"] = value{v: m["link.cpu_us_per_flow"].v - m["core.busy_us_per_flow"].v - channelPerFlow}
	m["link.allocs_per_flow"] = value{v: float64(lsat.allocs) / satN, n: lsat.flows}
	m["link.alloc_bytes_per_flow"] = value{v: float64(lsat.allocB) / satN, n: lsat.flows}
	m["link.flows_per_s"] = value{v: satN / lsat.wall.Seconds(), n: lsat.flows}

	measured := float64(len(d.w1Reqs) + len(d.satReqs))
	bare := summarize(d.bare.lat)
	sat := summarize(d.sat.lat)
	m["daemon.cpu_us_per_flow"] = value{v: us(d.cpuSat) / float64(len(d.satReqs)), n: len(d.satReqs), note: "sat"}
	m["daemon.bare_rtt_p50_us"] = value{v: bare.p50, n: bare.n}
	m["daemon.bare_rtt_p99_us"] = value{v: quantile(sortedCopy(d.bare.lat), 0.99), n: bare.n}
	m["daemon.bare_cpu_us"] = value{v: us(d.cpuBare) / float64(bareFlows), n: bareFlows}
	m["daemon.sat_p99_us"] = value{v: quantile(sortedCopy(d.sat.lat), 0.99), n: sat.n}
	m["daemon.batching_factor"] = value{v: d.final.Socket.BatchingFactor}
	m["daemon.ingress_dropped"] = value{v: float64(d.final.Socket.IngressDropped)}
	m["daemon.client_resubmits"] = value{v: float64(d.w1.resubmits + d.sat.resubmits)}
	dups := int64(0)
	for _, sh := range d.final.Shards {
		dups += sh.DupSubmits
	}
	m["daemon.dup_submits"] = value{v: float64(dups)}
	m["daemon.queue_len_max"] = value{v: float64(d.queueMax), note: "sampled every 250 ms"}
	m["daemon.gc_per_1k_flows"] = value{v: float64(d.gcs) / (measured / 1000), n: int(measured)}
	m["daemon.corrupt_flows"] = value{v: float64(d.corrupt), note: "all phases"}

	// The replays must have measured the program spinald runs.
	checks := []string{"replay validity (mean forward symbols, same flows):"}
	valid := true
	for _, c := range []struct {
		what            string
		replay, spinald float64
	}{
		{fmt.Sprintf("core, per block (%d flows)", w.replayW1), m["core.symbols_per_block"].v,
			recordSymbols(d.w1.recs[:w.replayW1]) * float64(core.st.flows) / float64(core.st.blocks)},
		{fmt.Sprintf("link, per flow, 1 outstanding (%d)", w.replayW1), meanInts(lw1.flowSyms), recordSymbols(d.w1.recs[:w.replayW1])},
		{fmt.Sprintf("link, per flow, %d outstanding (%d)", w.satOut, w.replaySat), meanInts(lsat.flowSyms), recordSymbols(d.sat.recs[:w.replaySat])},
	} {
		line, ok := checkReplay(c.what, c.replay, c.spinald)
		checks = append(checks, line)
		valid = valid && ok
	}
	checks = append(checks,
		fmt.Sprintf("  core replay decoded %d of %d flows", coreOK, w.replayW1),
		fmt.Sprintf("  link replays delivered %d of %d and %d of %d flows intact", lw1.delivered, lw1.flows, lsat.delivered, lsat.flows))
	if w.checkReplay && !valid {
		res.report = checks
		return res, fmt.Errorf("%s: a replay does not reproduce spinald's symbol counts", w.name)
	}

	latRows := []tableRow{
		{"link.flow_p50_us", m["link.flow_p50_us"].v, fmt.Sprintf("link replay, 1 outstanding, n=%d", flow.n)},
		{"daemon.bare_rtt_p50_us", m["daemon.bare_rtt_p50_us"].v, fmt.Sprintf("socket → shard → egress, n=%d", bare.n)},
	}
	latLines, latUn := layerTable(fmt.Sprintf("latency per flow (us), %s:", w.name), "lat_p50_us",
		base["lat_p50_us"].v, fmt.Sprintf("untraced w1, n=%d", base["lat_p50_us"].n), latRows)
	cpuRows := []tableRow{
		{"core.busy_us_per_flow", m["core.busy_us_per_flow"].v, "encode + decode, core replay"},
		{"channel", channelPerFlow, "Model.Transmit, core replay"},
		{"link.overhead_us_per_flow", m["link.overhead_us_per_flow"].v, fmt.Sprintf("link replay CPU beyond core, %d outstanding", w.satOut)},
		{"daemon.bare_cpu_us", m["daemon.bare_cpu_us"].v, "spinald CPU per bare submit"},
	}
	cpuLines, cpuUn := layerTable(fmt.Sprintf("CPU per flow (us), %s:", w.name), "daemon.cpu_us_per_flow",
		m["daemon.cpu_us_per_flow"].v, "spinald CPU over the sat phase", cpuRows)
	m["table.lat_unaccounted_us"] = value{v: latUn}
	m["table.cpu_unaccounted_us"] = value{v: cpuUn}
	m["trace.lat_p50_overhead_pct"] = value{v: 100 * (traced["lat_p50_us"].v - base["lat_p50_us"].v) / base["lat_p50_us"].v}

	res.report = append(res.report, latLines...)
	res.report = append(res.report, cpuLines...)
	res.report = append(res.report, checks...)
	res.report = append(res.report, overheadLines(base, traced)...)
	return res, nil
}

// traceFetch is the fetch workload's traced run: every round timed from
// outside through Config.WindowTrace, allocations per fetch, and a core
// replay of the first fetches' segments for the decode cost at this
// block size.
func (b *bench) traceFetch(ctx context.Context, w workload, seed int64, base map[string]value, tr *tracer) (*result, error) {
	f, err := b.runFetch(ctx, w, seed, tr)
	if err != nil {
		return nil, err
	}
	traced, attempted, failed := f.endToEnd(w)
	res := &result{workload: w.name, metrics: map[string]value{}, attempted: attempted, failed: failed, correct: f.corrupt == 0}
	m := res.metrics

	p := spinal.DefaultParams()
	p.B = 16
	core := newCoreReplay(p, tr)
	for i, payload := range f.payloads[:w.replayW1] {
		// Each segment alone on its own channel: the decode cost at this
		// block size, not a reproduction of the fetch's shared session.
		for s := 0; s*1024 < len(payload); s++ {
			seg := payload[s*1024 : min((s+1)*1024, len(payload))]
			core.flow(fmt.Sprintf("fetch/%d/seg/%d", i, s), seg, seed+int64(i)+int64(s))
		}
	}
	coreMetrics(m, &core.st)

	n := float64(len(f.results))
	var rounds, retries, losses, segs, srtt, cwnd float64
	for _, r := range f.results {
		rounds += float64(r.Steps)
		retries += float64(r.Retries)
		losses += float64(r.Losses)
		segs += float64(r.Segments)
		srtt += r.SRTT
		cwnd += r.CwndMax
	}
	round := summarize(f.roundUS)
	m["transport.round_p50_us"] = value{v: round.p50, n: round.n}
	m["transport.round_p99_us"] = value{v: quantile(sortedCopy(f.roundUS), 0.99), n: round.n}
	m["transport.rounds_per_fetch"] = value{v: rounds / n, n: int(n)}
	m["transport.retries_per_fetch"] = value{v: retries / n, n: int(n)}
	m["transport.useful_attempt_ratio"] = value{v: segs / (segs + retries), n: int(segs + retries)}
	m["transport.loss_events_per_fetch"] = value{v: losses / n, n: int(n)}
	m["transport.srtt_rounds"] = value{v: srtt / n, n: int(n), note: "mean final SRTT"}
	m["transport.cwnd_max"] = value{v: cwnd / n, n: int(n), note: "mean peak window"}
	m["transport.allocs_per_fetch"] = value{v: float64(f.allocs) / float64(f.attempted), n: f.attempted}

	sumRounds := 0.0
	for _, s := range f.roundSumUS {
		sumRounds += s
	}
	meanWall := 0.0
	for _, v := range f.wallUS {
		meanWall += v
	}
	meanWall /= float64(len(f.wallUS))
	lines, un := layerTable(fmt.Sprintf("wall per fetch (us), %s:", w.name), "mean fetch wall", meanWall,
		fmt.Sprintf("traced, n=%d", len(f.wallUS)),
		[]tableRow{{"Σ transport.round_us", sumRounds / float64(len(f.roundSumUS)), fmt.Sprintf("mean over fetches, %d rounds", round.n)}})
	m["table.fetch_unaccounted_us"] = value{v: un}
	m["trace.lat_p50_overhead_pct"] = value{v: 100 * (traced["lat_p50_us"].v - base["lat_p50_us"].v) / base["lat_p50_us"].v}
	res.report = append(res.report, lines...)
	res.report = append(res.report, overheadLines(base, traced)...)
	return res, nil
}

// overheadLines compares a traced pass's end-to-end numbers with the
// untraced pass's: the difference is what tracing costs.
func overheadLines(base, traced map[string]value) []string {
	out := []string{"tracing overhead (traced run vs untraced run):"}
	for _, name := range []string{"lat_p50_us", "lat_p75_us", "flows_per_s", "payload_kBps"} {
		b, t := base[name].v, traced[name].v
		out = append(out, fmt.Sprintf("  %-16s untraced %12.2f  traced %12.2f  %+6.1f%%", name, b, t, 100*(t-b)/b))
	}
	return out
}
