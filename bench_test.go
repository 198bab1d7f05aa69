package spinal_test

// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation. Each benchmark regenerates its artifact at quick scale and
// logs the resulting table, so `go test -bench=. -benchmem` doubles as a
// full reproduction run. See EXPERIMENTS.md for paper-vs-measured values
// and cmd/spinalsim for the standalone runner (including -full scale).

import (
	"bytes"
	"testing"

	"spinal"
	"spinal/channel"
	"spinal/internal/experiments"
)

func runExperiment(b *testing.B, id string) {
	e := experiments.ByID(id)
	if e == nil {
		b.Fatalf("unknown experiment %q", id)
	}
	cfg := experiments.DefaultConfig()
	for i := 0; i < b.N; i++ {
		tables := e.Run(cfg)
		if i == 0 {
			for _, t := range tables {
				b.Log("\n" + t.String())
			}
		}
	}
}

// BenchmarkFig8_1 regenerates Figure 8-1 (rate and gap vs SNR for spinal,
// Raptor, Strider, Strider+ and the LDPC envelope) — the flagship result.
func BenchmarkFig8_1(b *testing.B) { runExperiment(b, "fig8-1") }

// BenchmarkIntroTable regenerates the Chapter 1 gains table (reuses the
// Fig 8-1 sweep when cached).
func BenchmarkIntroTable(b *testing.B) { runExperiment(b, "intro-table") }

// BenchmarkFig8_2 regenerates Figure 8-2 (rateless vs fixed-rate spinal).
func BenchmarkFig8_2(b *testing.B) { runExperiment(b, "fig8-2") }

// BenchmarkFig8_3 regenerates Figure 8-3 (small-packet performance).
func BenchmarkFig8_3(b *testing.B) { runExperiment(b, "fig8-3") }

// BenchmarkFig8_4 regenerates Figure 8-4 (fading, known h).
func BenchmarkFig8_4(b *testing.B) { runExperiment(b, "fig8-4") }

// BenchmarkFig8_5 regenerates Figure 8-5 (fading, AWGN decoders).
func BenchmarkFig8_5(b *testing.B) { runExperiment(b, "fig8-5") }

// BenchmarkFig8_6 regenerates Figure 8-6 (compute budget vs performance).
func BenchmarkFig8_6(b *testing.B) { runExperiment(b, "fig8-6") }

// BenchmarkFig8_7 regenerates Figure 8-7 (bubble depth tradeoff).
func BenchmarkFig8_7(b *testing.B) { runExperiment(b, "fig8-7") }

// BenchmarkFig8_8 regenerates Figure 8-8 (output density c).
func BenchmarkFig8_8(b *testing.B) { runExperiment(b, "fig8-8") }

// BenchmarkFig8_9 regenerates Figure 8-9 (tail symbols).
func BenchmarkFig8_9(b *testing.B) { runExperiment(b, "fig8-9") }

// BenchmarkFig8_10 regenerates Figure 8-10 (puncturing schedules).
func BenchmarkFig8_10(b *testing.B) { runExperiment(b, "fig8-10") }

// BenchmarkFig8_11 regenerates Figure 8-11 (symbols-to-decode CDF).
func BenchmarkFig8_11(b *testing.B) { runExperiment(b, "fig8-11") }

// BenchmarkFig8_12 regenerates Figure 8-12 (code block length).
func BenchmarkFig8_12(b *testing.B) { runExperiment(b, "fig8-12") }

// BenchmarkTable8_1 regenerates Table 8.1 (OFDM PAPR by constellation).
func BenchmarkTable8_1(b *testing.B) { runExperiment(b, "table8-1") }

// BenchmarkFigB_2 regenerates Figure B-2 (hardware parameter set in
// simulation).
func BenchmarkFigB_2(b *testing.B) { runExperiment(b, "figB-2") }

// BenchmarkBSC exercises the §4.6 BSC capacity claim.
func BenchmarkBSC(b *testing.B) { runExperiment(b, "bsc") }

// BenchmarkHashAblation exercises the §7.1 hash-choice ablation.
func BenchmarkHashAblation(b *testing.B) { runExperiment(b, "hash-ablation") }

// --- Micro-benchmarks of the core code paths ---

// BenchmarkEncoder measures raw symbol generation throughput. It reuses
// one output buffer via AppendSymbols so the timing reflects encoding,
// not allocator noise.
func BenchmarkEncoder(b *testing.B) {
	p := spinal.DefaultParams()
	msg := make([]byte, 32)
	for i := range msg {
		msg[i] = byte(i * 37)
	}
	enc := spinal.NewEncoder(msg, 256, p)
	sched := enc.NewSchedule()
	ids := sched.NextSubpass()
	buf := make([]complex128, 0, len(ids))
	b.ReportAllocs()
	b.ResetTimer()
	var sink complex128
	for i := 0; i < b.N; i++ {
		buf = enc.AppendSymbols(buf[:0], ids)
		for _, s := range buf {
			sink += s
		}
	}
	_ = sink
}

// BenchmarkDecode measures one full bubble decode of a 256-bit message
// with two passes of symbols at the default parameters. Steady-state
// decodes reuse the decoder's scratch and perform no allocations.
func BenchmarkDecode(b *testing.B) {
	p := spinal.DefaultParams()
	msg := make([]byte, 32)
	for i := range msg {
		msg[i] = byte(i*73 + 11)
	}
	enc := spinal.NewEncoder(msg, 256, p)
	dec := spinal.NewDecoder(256, p)
	sched := enc.NewSchedule()
	for sub := 0; sub < 16; sub++ {
		ids := sched.NextSubpass()
		dec.Add(ids, enc.Symbols(ids))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dec.Decode()
	}
}

// benchKernelDecode measures one full decode of a 256-bit message of
// noiseless symbols at the given beam width, kernel mode and number of
// stored subpasses (8 subpasses = one full pass of the §5 puncturing
// schedule).
func benchKernelDecode(b *testing.B, beam, subpasses int, kernel spinal.Kernel) {
	p := spinal.DefaultParams()
	p.B = beam
	p.Kernel = kernel
	dec := benchParamsDecode(b, p, subpasses)
	if dec.KernelUsed() != kernel && kernel != spinal.KernelAuto {
		b.Fatalf("decode ran on kernel %v, want %v", dec.KernelUsed(), kernel)
	}
}

// benchParamsDecode measures one full decode of a noiseless 256-bit
// message under p from the given number of stored subpasses, and
// returns the decoder.
func benchParamsDecode(b *testing.B, p spinal.Params, subpasses int) *spinal.Decoder {
	msg := make([]byte, 32)
	for i := range msg {
		msg[i] = byte(i*73 + 11)
	}
	enc := spinal.NewEncoder(msg, 256, p)
	dec := spinal.NewDecoder(256, p)
	sched := enc.NewSchedule()
	for sub := 0; sub < subpasses; sub++ {
		ids := sched.NextSubpass()
		dec.Add(ids, enc.Symbols(ids))
	}
	// One untimed decode sizes the scratch, so allocs/op reads the
	// steady state (0) whatever b.N a slow machine settles on.
	dec.Decode()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dec.Decode()
	}
	b.StopTimer()
	return dec
}

// BenchmarkDecodeQuantized is a line-rate operating point: a streaming
// receiver attempts a decode after every full pass of the puncturing
// schedule (8 subpasses here), with the fixed-point kernel at beam
// width 32 — between the Appendix B hardware's B=4 and the software
// evaluation's B=256, and per the Figure 8-6 compute-budget curve
// (fig8-6: k=4, budget 128) still at ~90% of the wide-beam fraction of
// capacity. The bench_check.sh gate holds its latency within 20% of the
// newest BENCH_*.json snapshot (on a matching CPU) and its steady-state
// allocations at zero.
func BenchmarkDecodeQuantized(b *testing.B) {
	benchKernelDecode(b, 32, 8, spinal.KernelQuantized)
}

// BenchmarkDecodeQuantized256 runs the fixed-point kernel on the
// BenchmarkDecode workload (B=256, two passes) — the direct comparison
// row for BenchmarkDecodeFloat256.
func BenchmarkDecodeQuantized256(b *testing.B) {
	benchKernelDecode(b, 256, 16, spinal.KernelQuantized)
}

// BenchmarkDecodeFloat256 pins the float64 reference path on the same
// workload — the arithmetic BenchmarkDecode measured before the
// quantized kernel became the default.
func BenchmarkDecodeFloat256(b *testing.B) {
	benchKernelDecode(b, 256, 16, spinal.KernelFloat)
}

// BenchmarkDecodeLookahead runs the float search with subtree depth
// D=2 (§4.3) at B=64 on the same two-pass workload; lookahead decodes
// never take the fixed-point kernel.
func BenchmarkDecodeLookahead(b *testing.B) {
	p := spinal.DefaultParams()
	p.B, p.D = 64, 2
	benchParamsDecode(b, p, 16)
}

// benchNoisyDecode measures one decode of an nBits message received
// over 10 dB AWGN at beam width beam: subpasses are added until the
// first correct decode, and that decode is timed. Unlike the noiseless
// benchmarks, costs near the beam boundary are close, so selection does
// the work it does in a receiver.
func benchNoisyDecode(b *testing.B, nBits, beam int) {
	p := spinal.DefaultParams()
	p.B = beam
	msg := make([]byte, nBits/8)
	for i := range msg {
		msg[i] = byte(i*73 + 11)
	}
	enc := spinal.NewEncoder(msg, nBits, p)
	dec := spinal.NewDecoder(nBits, p)
	sched := enc.NewSchedule()
	ch := channel.NewAWGN(10, 1)
	for sub := 0; ; sub++ {
		if sub == 64*sched.Subpasses() {
			b.Fatal("no correct decode within 64 passes")
		}
		ids := sched.NextSubpass()
		dec.Add(ids, ch.Transmit(enc.Symbols(ids)))
		if got, _ := dec.Decode(); bytes.Equal(got, msg) {
			break
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dec.Decode()
	}
}

// BenchmarkDecodeNoisyPaper is spinald's daemon-paper operating point:
// a 528-bit block (64-byte flow) at B=256 and 10 dB.
func BenchmarkDecodeNoisyPaper(b *testing.B) { benchNoisyDecode(b, 528, 256) }

// BenchmarkDecodeNoisySmall is spinald's daemon-small operating point:
// a 144-bit block (16-byte flow) at B=16 and 10 dB.
func BenchmarkDecodeNoisySmall(b *testing.B) { benchNoisyDecode(b, 144, 16) }

// BenchmarkDecodeNoisyFetch is the fetch-delay4 workload's block shape:
// a 1024-bit block at B=16 and 10 dB, eight of which (plus one 144-bit
// block) make up each transport segment.
func BenchmarkDecodeNoisyFetch(b *testing.B) { benchNoisyDecode(b, 1024, 16) }

// BenchmarkHWModel regenerates the Appendix B throughput/area model.
func BenchmarkHWModel(b *testing.B) { runExperiment(b, "hw-model") }

// BenchmarkAttemptAblation regenerates the decode-attempt granularity
// ablation.
func BenchmarkAttemptAblation(b *testing.B) { runExperiment(b, "ablation-attempts") }

// BenchmarkGEChannel regenerates the bursty-channel extension experiment.
func BenchmarkGEChannel(b *testing.B) { runExperiment(b, "ge-channel") }

// BenchmarkScenarioGoodput regenerates the time-varying-scenario goodput
// comparison (FixedRate vs CapacityRate vs TrackingRate).
func BenchmarkScenarioGoodput(b *testing.B) { runExperiment(b, "scenario-goodput") }
