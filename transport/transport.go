// Package transport is the public multi-block fetch API over the spinal
// link — the experiment tier above spinal/link, the way spinal/sim sits
// above the codec.
//
// A Fetcher streams a large payload as a pipeline of link-layer
// segments, one link flow each. A segment is sent once and kept until it
// is delivered: the rateless receiver keeps every symbol it has, so a
// slow segment is never a lost one. The number of segments in flight
// opens by one per delivered segment, up to Config.MaxWindow. A segment
// whose flow fails (the session's round budget, a deadline) fails the
// fetch with that error wrapped. Round-trip time is estimated RFC
// 6298-style from the session's ack telemetry (or from segment
// completions when none is configured) and reported as Result.SRTT and
// Result.RTO. Time is engine rounds, the link simulation's only clock.
//
//	res, err := transport.Fetch(ctx, payload, transport.Config{
//		Options: []link.Option{
//			link.WithChannel(channel.NewAWGN(12, 1)),
//			link.WithRatePolicy(link.CapacityRate{SNREstimateDB: 12}),
//			link.WithFeedback(link.FeedbackConfig{DelayRounds: 4}),
//		},
//	})
//
// Pair it with link.WithScheduler to fetch fairly alongside competing
// flows: the fetch's segments are ordinary flows, so per-flow weights,
// priorities and deadlines apply to them like any other traffic.
//
// The concrete types are aliases of the engine-internal implementations,
// so the public surface and the transport cannot drift apart; see
// docs/API.md for the stability guarantees.
package transport

import (
	"context"

	itransport "spinal/internal/transport"
)

// Config parameterizes a fetch: the session it runs over (own or
// shared), segment size, window bounds and the bounds of the reported
// RTO.
type Config = itransport.Config

// Result reports one completed fetch: the reassembled payload, the
// segment count, the final SRTT/RTO estimates, window extremes, airtime
// totals and goodput.
type Result = itransport.Result

// Fetcher streams payloads over a link session as windowed segment
// pipelines; reuse one to keep RTT state across fetches.
type Fetcher = itransport.Fetcher

// NewFetcher builds a fetcher and, unless cfg.Session is set, its own
// link session from cfg.Params and cfg.Options.
func NewFetcher(cfg Config) (*Fetcher, error) { return itransport.NewFetcher(cfg) }

// Fetch is the one-shot convenience: build a fetcher, stream payload,
// close.
func Fetch(ctx context.Context, payload []byte, cfg Config) (*Result, error) {
	return itransport.Fetch(ctx, payload, cfg)
}
