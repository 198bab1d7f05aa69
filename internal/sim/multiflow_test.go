package sim

import (
	"testing"

	"spinal/internal/core"
)

func multiFlowParams() core.Params {
	return core.Params{K: 4, B: 16, D: 1, C: 6, Tail: 2, Ways: 8}
}

// TestMeasureMultiFlow: a mixed-size, mixed-SNR workload with churn
// delivers every datagram and reports a sane aggregate rate.
func TestMeasureMultiFlow(t *testing.T) {
	res := MeasureMultiFlow(MultiFlowConfig{
		Params:       multiFlowParams(),
		Flows:        12,
		Concurrency:  5,
		MinBytes:     20,
		MaxBytes:     120,
		SNRsDB:       []float64{10, 15, 22},
		MaxBlockBits: 192,
		Shards:       4,
		Seed:         42,
	})
	if res.Flows != 12 {
		t.Fatalf("resolved %d flows, want 12", res.Flows)
	}
	if res.Failures != 0 {
		t.Fatalf("%d failures", res.Failures)
	}
	if res.Rate <= 0 || res.Rate > 12 {
		t.Fatalf("implausible aggregate rate %.3f b/sym", res.Rate)
	}
	if res.PeakActive > 5 {
		t.Fatalf("peak active %d exceeds concurrency 5", res.PeakActive)
	}
	if res.Bytes == 0 || res.Rounds == 0 {
		t.Fatalf("empty result: %+v", res)
	}
}

// TestMeasureMultiFlowDeterministic: identical seeds give identical
// aggregates despite internal parallelism.
func TestMeasureMultiFlowDeterministic(t *testing.T) {
	cfg := MultiFlowConfig{
		Params:       multiFlowParams(),
		Flows:        6,
		Concurrency:  3,
		MinBytes:     20,
		MaxBytes:     60,
		MaxBlockBits: 192,
		Shards:       3,
		Seed:         7,
	}
	a := MeasureMultiFlow(cfg)
	b := MeasureMultiFlow(cfg)
	if a != b {
		t.Fatalf("nondeterministic results:\n%+v\n%+v", a, b)
	}
}
