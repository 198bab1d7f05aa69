package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"time"

	"spinal"
	"spinal/channel"
	"spinal/link"
	"spinal/transport"
)

// fetchConfig is the fetch-delay4 setting: B=16 at 10 dB, acks delayed
// four rounds, half-duplex ack airtime, two codec workers, 1 KiB
// segments under the CUBIC window with RTO bounds of 24/8/96 rounds and
// 64 retries per segment.
func fetchConfig(seed int64, onRound func(step int, cwnd float64)) transport.Config {
	p := spinal.DefaultParams()
	p.B = 16
	return transport.Config{
		Params: p,
		Options: []link.Option{
			link.WithChannel(channel.NewAWGN(snrDB, seed)),
			link.WithRatePolicy(link.CapacityRate{SNREstimateDB: snrDB}),
			link.WithFeedback(link.FeedbackConfig{DelayRounds: 4}),
			link.WithHalfDuplex(0),
			link.WithCodecPool(2),
			link.WithSeed(seed),
		},
		SegmentBytes: 1024,
		InitRTO:      24,
		MinRTO:       8,
		MaxRTO:       96,
		MaxRetries:   64,
		WindowTrace:  onRound,
	}
}

// fetchOnce fetches payload on a fresh Fetcher and times the whole of it:
// session construction, the fetch, and Close.
func fetchOnce(ctx context.Context, cfg transport.Config, payload []byte) (*transport.Result, time.Duration, error) {
	t0 := time.Now()
	f, err := transport.NewFetcher(cfg)
	if err != nil {
		return nil, 0, err
	}
	res, err := f.Fetch(ctx, payload)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return res, time.Since(t0), err
}

// fetchRun is what one pass over the fetch workload observed.
type fetchRun struct {
	setups    []float64
	wallUS    []float64 // every successful fetch, repetitions included
	payloads  [][]byte  // per distinct fetch
	attempted int       // fetches made, repetitions included
	ok        int
	corrupt   int
	bytes     int64 // payload and airtime of each distinct fetch, once
	symbols   int64
	rss       int64
	results   []*transport.Result // per successful fetch
	// Traced only.
	roundUS    []float64 // every round of every fetch
	roundSumUS []float64 // per fetch, the rounds' total
	allocs     uint64
}

// runFetch makes passes over w.fetches payloads, fetch i seeded seed+i,
// each fetch on a fresh Fetcher, until the measurement window b.window
// has passed; the first pass always completes, the last may end part
// way. A fetch is deterministic, so repeating the same few fetches fills
// the window without adding inputs on which the link's CRC-16 could
// accept a wrong decode. Set-up is a fetch of one probeBytes block on a
// fresh Fetcher, timed on setupRuns probes spread evenly over the window
// (one in a traced run).
func (b *bench) runFetch(ctx context.Context, w workload, seed int64, tr *tracer) (fetchRun, error) {
	var f fetchRun
	// Return freed memory to the OS and reset this process's RSS
	// high-water mark, so rss_peak_MB covers the fetches and not an
	// earlier workload of the same run; without the file the mark covers
	// the whole process.
	debug.FreeOSMemory()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)

	// Probe k is seeded seed-1-k, apart from the fetches' seeds: each
	// probe has its own payload and noise, so how many decode attempts
	// one probe needs does not decide a run's set-up time.
	setup := func() error {
		k := int64(len(f.setups))
		probe := payloads(seed-1-k, seqProbe, 1, probeBytes)[0]
		res, wall, err := fetchOnce(ctx, fetchConfig(seed-1-k, nil), probe)
		if err != nil {
			return fmt.Errorf("set-up probe fetch: %w", err)
		}
		if !bytes.Equal(res.Payload, probe) {
			return errors.New("set-up probe fetch returned wrong bytes")
		}
		f.setups = append(f.setups, wall.Seconds())
		return nil
	}
	starts := setupRuns
	if tr != nil {
		starts = 1
	}

	for i := 0; i < w.fetches; i++ {
		f.payloads = append(f.payloads, payloads(seed+int64(i), seqW1, 1, w.fetchBytes)[0])
	}
	begin := time.Now()
	for n := 0; n < w.fetches || time.Since(begin) < b.window; n++ {
		for k := len(f.setups); k < starts && time.Since(begin) >= b.window*time.Duration(k)/setupRuns; k++ {
			if err := setup(); err != nil {
				return f, err
			}
		}
		if err := ctx.Err(); err != nil {
			return f, err
		}
		if time.Now().After(b.deadline) {
			return f, fmt.Errorf("fetch phase timed out after %d fetches", n)
		}
		i, pass := n%w.fetches, n/w.fetches
		f.attempted++
		wall, err := f.fetch(ctx, seed+int64(i), f.payloads[i], fmt.Sprintf("fetch/%d/%d", i, pass), tr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: fetch %d pass %d: %v\n", i, pass, err)
			continue
		}
		f.wallUS = append(f.wallUS, float64(wall.Nanoseconds())/1e3)
		if pass == 0 {
			// A fetch's airtime is the same on every pass: count it once.
			res := f.results[len(f.results)-1]
			f.bytes += int64(len(f.payloads[i]))
			f.symbols += int64(res.SymbolsSent + res.AckSymbols)
		}
	}
	for len(f.setups) < starts {
		if err := setup(); err != nil {
			return f, err
		}
	}
	var err error
	f.rss, err = peakRSS("self")
	return f, err
}

// fetch makes one fetch of payload, seeded seed, and checks the bytes it
// returns. A traced fetch records its span, its rounds and its
// allocations under trace.
func (f *fetchRun) fetch(ctx context.Context, seed int64, payload []byte, trace string, tr *tracer) (time.Duration, error) {
	var rounds []time.Time
	var onRound func(int, float64)
	var ms0 runtime.MemStats
	if tr != nil {
		onRound = func(int, float64) { rounds = append(rounds, time.Now()) }
		runtime.ReadMemStats(&ms0)
	}
	t0 := time.Now()
	res, wall, err := fetchOnce(ctx, fetchConfig(seed, onRound), payload)
	if tr != nil {
		var ms1 runtime.MemStats
		runtime.ReadMemStats(&ms1)
		f.allocs += ms1.Mallocs - ms0.Mallocs
		parent := tr.add(trace, 0, "transport.fetch", t0, t0.Add(wall))
		prev, sum := t0, 0.0
		for _, at := range rounds {
			us := float64(at.Sub(prev).Nanoseconds()) / 1e3
			f.roundUS = append(f.roundUS, us)
			sum += us
			tr.add(trace, parent, "transport.round", prev, at)
			prev = at
		}
		f.roundSumUS = append(f.roundSumUS, sum)
	}
	if err != nil {
		return 0, err
	}
	if !bytes.Equal(res.Payload, payload) {
		f.corrupt++
		return 0, errors.New("returned wrong bytes")
	}
	f.ok++
	f.results = append(f.results, res)
	return wall, nil
}

// endToEnd turns a fetch pass into the end-to-end metrics, read the way
// the daemon workloads' are: latency from all fetches of the run,
// throughput from all of them together.
func (f *fetchRun) endToEnd(w workload) (map[string]value, int, int) {
	m := map[string]value{}
	m["setup_s"] = value{v: median(f.setups), n: len(f.setups), note: "64-byte probe fetches, spread over the run"}
	lat := summarize(f.wallUS)
	total := 0.0
	for _, us := range f.wallUS {
		total += us / 1e6
	}
	m["lat_p50_us"] = value{v: lat.p50, n: lat.n}
	m["lat_p75_us"] = value{v: quantile(sortedCopy(f.wallUS), 0.75), n: lat.n,
		note: fmt.Sprintf("%d fetches of %d inputs; p50 %.0f, %s", lat.n, w.fetches, lat.p50, lat.tailNote())}
	m["flows_per_s"] = value{v: float64(len(f.wallUS)) / total, n: lat.n, note: "fetches per second of fetching"}
	m["payload_kBps"] = value{v: float64(len(f.wallUS)*w.fetchBytes) / total / 1e3, n: lat.n}
	m["bits_per_symbol"] = value{v: float64(8*f.bytes) / float64(f.symbols), n: w.fetches, note: "each input once"}
	m["delivered_ratio"] = value{v: float64(f.ok) / float64(f.attempted), n: f.attempted}
	m["rss_peak_MB"] = value{v: float64(f.rss) / 1e6, note: "benchmark process VmHWM"}
	return m, f.attempted, f.attempted - f.ok
}
