package link

import (
	"math/rand"
	"testing"

	"spinal/internal/channel"
)

// BenchmarkLinkEngine measures aggregate multi-flow goodput: 32 concurrent
// 44-byte flows (two 192-bit code blocks each) at 12 dB with
// capacity-seeded pacing, driven to completion per iteration. The
// benchmark reports delivered goodput in bytes/sec and payload bits per
// channel symbol alongside ns/op; scripts/bench_check.sh gates ns/op
// regressions against the checked-in BENCH_*.json baseline.
func BenchmarkLinkEngine(b *testing.B) {
	const flows = 32
	const size = 44
	cfg := EngineConfig{
		Params:       linkParams(),
		MaxBlockBits: 192,
	}
	rng := rand.New(rand.NewSource(63))
	payloads := make([][]byte, flows)
	for i := range payloads {
		payloads[i] = flowPayload(rng, size)
	}
	e := NewEngine(cfg)

	b.ReportAllocs()
	b.ResetTimer()
	var bytesDelivered, symbols int64
	for i := 0; i < b.N; i++ {
		for f := 0; f < flows; f++ {
			e.AddFlow(payloads[f], FlowConfig{
				Channel: channel.NewAWGN(12, int64(i*flows+f)),
				Rate:    CapacityRate{SNREstimateDB: 12},
			})
		}
		for _, r := range e.Drain(0) {
			if r.Err != nil {
				b.Fatal(r.Err)
			}
			bytesDelivered += int64(len(r.Datagram))
			symbols += int64(r.Stats.SymbolsSent)
		}
	}
	b.ReportMetric(float64(bytesDelivered)/b.Elapsed().Seconds(), "goodput-B/s")
	b.ReportMetric(float64(bytesDelivered*8)/float64(symbols), "bits/sym")
}

// BenchmarkLinkEnginePaper runs a spinald shard's load at the paper's
// operating point on one engine whose codec work fans out over
// GOMAXPROCS goroutines: 16 concurrent 64-byte flows (one 528-bit block
// each) at B=256 and 10 dB, CapacityRate pacing and half-duplex ack
// accounting, driven to completion per iteration. It is the guarded benchmark that runs the
// decoder's beam ladder (B/4 first, B on a CRC failure); the other link
// benchmarks run at B=32, below the ladder's floor.
func BenchmarkLinkEnginePaper(b *testing.B) {
	const flows = 16
	const size = 64
	cfg := EngineConfig{
		Params:     paperParams(),
		HalfDuplex: &HalfDuplexConfig{},
	}
	rng := rand.New(rand.NewSource(64))
	payloads := make([][]byte, flows)
	for i := range payloads {
		payloads[i] = flowPayload(rng, size)
	}
	e := NewEngine(cfg)

	b.ReportAllocs()
	b.ResetTimer()
	var delivered, bits, air int64
	for i := 0; i < b.N; i++ {
		for f := 0; f < flows; f++ {
			e.AddFlow(payloads[f], FlowConfig{
				Channel: channel.NewAWGN(10, int64(i*flows+f)),
				Rate:    CapacityRate{SNREstimateDB: 10},
			})
		}
		for _, r := range e.Drain(0) {
			if r.Err != nil {
				b.Fatal(r.Err)
			}
			delivered++
			bits += int64(8 * len(r.Datagram))
			air += int64(r.Stats.SymbolsSent + r.Stats.AckSymbols)
		}
	}
	b.ReportMetric(float64(delivered)/b.Elapsed().Seconds(), "flows/s")
	b.ReportMetric(float64(bits)/float64(air), "bits/sym")
}
