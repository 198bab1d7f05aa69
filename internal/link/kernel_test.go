package link

import (
	"bytes"
	"math/rand"
	"testing"

	"spinal/internal/channel"
	"spinal/internal/core"
)

// TestEngineKernelEquivalence pins the kernel plumbing at the link
// layer: an engine whose flows decode on the fixed-point kernel must
// produce the same deliveries and the same wire trajectory — rounds,
// symbols, rate — as one pinned to the float64 reference path, frame
// for frame. The engine itself never inspects Params.Kernel; this test
// exists so a regression in that pass-through (or a kernel-dependent
// outcome sneaking into the decoder caches) fails here, next to the engine,
// rather than only in the sim golden soak.
func TestEngineKernelEquivalence(t *testing.T) {
	run := func(kernel core.Kernel) []FlowResult {
		cfg := engineParams()
		cfg.Params.Kernel = kernel
		cfg.Seed = 11
		cfg.Faults = &FaultConfig{Blackout: 0.05, BlackoutRounds: 1}
		e := NewEngine(cfg)
		rng := rand.New(rand.NewSource(17))
		for i := 0; i < 6; i++ {
			e.AddFlow(flowPayload(rng, 20+rng.Intn(60)), FlowConfig{
				Channel: channel.NewAWGN(10+float64(i), int64(i+1)),
			})
		}
		return e.Drain(0)
	}

	rf := run(core.KernelFloat)
	rq := run(core.KernelQuantized)
	if len(rf) != len(rq) {
		t.Fatalf("float delivered %d flows, quantized %d", len(rf), len(rq))
	}
	for i := range rf {
		f, q := rf[i], rq[i]
		if f.ID != q.ID || f.Err != nil || q.Err != nil {
			t.Fatalf("flow %d: float err=%v quantized err=%v", f.ID, f.Err, q.Err)
		}
		if !bytes.Equal(f.Datagram, q.Datagram) {
			t.Fatalf("flow %d: datagrams differ across kernels", f.ID)
		}
		if f.Stats != q.Stats {
			t.Fatalf("flow %d: wire trajectory diverged across kernels\nfloat:     %+v\nquantized: %+v",
				f.ID, f.Stats, q.Stats)
		}
	}
}
