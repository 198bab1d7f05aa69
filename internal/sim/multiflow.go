package sim

import (
	"bytes"
	"context"
	"math/rand"

	"spinal/channel"
	"spinal/internal/core"
	"spinal/link"
)

// MultiFlowConfig drives the §6 link engine at workload scale: many
// datagrams of mixed sizes over channels of mixed SNRs, multiplexed into
// shared frames with a bounded number of flows in flight — arrivals
// replace departures (flow churn) until the configured total has run.
type MultiFlowConfig struct {
	Params core.Params
	// Flows is the total number of datagrams to deliver.
	Flows int
	// Concurrency caps the flows in flight at once (0 ⇒ min(Flows, 32)).
	Concurrency int
	// MinBytes/MaxBytes bound the uniformly drawn datagram sizes
	// (defaults 64/1500).
	MinBytes, MaxBytes int
	// SNRsDB is the set of per-flow channel SNRs, assigned round-robin
	// (nil ⇒ {8, 12, 18, 25}).
	SNRsDB []float64
	// MaxBlockBits, FrameSymbols and Shards pass through to the engine.
	MaxBlockBits int
	FrameSymbols int
	Shards       int
	Seed         int64
}

// MultiFlowResult aggregates an engine workload.
type MultiFlowResult struct {
	Flows    int
	Failures int   // budget exhaustion or corrupted delivery
	Bytes    int64 // payload bytes delivered
	Symbols  int64 // channel symbols spent (failed flows included)
	// Rate is aggregate payload bits per channel symbol.
	Rate float64
	// Rounds is the number of engine scheduling rounds consumed.
	Rounds int
	// PeakActive is the largest number of flows simultaneously in flight.
	PeakActive int
}

// MeasureMultiFlow runs the configured workload through a link.Engine and
// aggregates delivery statistics. Trials are deterministic given Seed.
func MeasureMultiFlow(cfg MultiFlowConfig) MultiFlowResult {
	conc := cfg.Concurrency
	if conc <= 0 {
		conc = 32
	}
	if conc > cfg.Flows {
		conc = cfg.Flows
	}
	minB, maxB := cfg.MinBytes, cfg.MaxBytes
	if minB <= 0 {
		minB = 64
	}
	if maxB < minB {
		maxB = 1500
	}
	snrs := cfg.SNRsDB
	if len(snrs) == 0 {
		snrs = []float64{8, 12, 18, 25}
	}

	s, err := link.NewSession(cfg.Params,
		link.WithMaxBlockBits(cfg.MaxBlockBits),
		link.WithCodecPool(cfg.Shards),
		link.WithFrameSymbols(cfg.FrameSymbols),
	)
	if err != nil {
		// No option combination above is invalid; fail loudly if the API
		// ever makes one so.
		panic(err)
	}
	defer s.Close()
	ctx := context.Background()

	rng := rand.New(rand.NewSource(cfg.Seed))
	want := make(map[link.FlowID][]byte, conc)
	admitted := 0
	admit := func() {
		n := minB
		if maxB > minB {
			n += rng.Intn(maxB - minB + 1)
		}
		data := make([]byte, n)
		rng.Read(data)
		snr := snrs[admitted%len(snrs)]
		// Any channel.Model drops in here; this workload keeps the
		// fixed-SNR AWGN mix (the scenario driver covers time-varying
		// media).
		id, err := s.Send(data,
			link.WithChannel(channel.NewAWGN(snr, cfg.Seed+int64(admitted)*7919)),
			link.WithRatePolicy(link.CapacityRate{SNREstimateDB: snr}))
		if err != nil {
			panic(err) // flow-scoped options only; cannot fail
		}
		want[id] = data
		admitted++
	}

	var res MultiFlowResult
	for admitted < cfg.Flows && s.Active() < conc {
		admit()
	}
	for s.Active() > 0 {
		if a := s.Active(); a > res.PeakActive {
			res.PeakActive = a
		}
		finished, serr := s.Step(ctx)
		if serr != nil {
			panic(serr) // background context; cannot fail
		}
		res.Rounds++
		for _, r := range finished {
			res.Flows++
			res.Symbols += int64(r.Stats.SymbolsSent)
			if r.Err != nil || !bytes.Equal(r.Datagram, want[r.ID]) {
				res.Failures++
			} else {
				res.Bytes += int64(len(r.Datagram))
			}
			delete(want, r.ID)
			if admitted < cfg.Flows {
				admit()
			}
		}
	}
	if res.Symbols > 0 {
		res.Rate = float64(res.Bytes*8) / float64(res.Symbols)
	}
	return res
}
