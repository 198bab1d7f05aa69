// Package hw is the Appendix B hardware bubble decoder, in two layers.
//
// kernel.go is the datapath, realized in software: the saturating
// fixed-point quantizer, per-symbol distance tables (built by SSE2 on
// amd64, kernel_amd64.s, and by a Go loop elsewhere), batched int32
// branch-cost accumulation, in-place compaction of dominated
// candidates, and the partial-select unit that keeps the best B of a
// step's candidates, ending in a 16-key sorting network (insertion sort
// for ranges under 8 keys) as the hardware's selection unit ends in a
// bitonic one. internal/core drives
// these primitives as its default decode kernel; the equivalence suite
// there pins the quantized results to the float reference path within
// a documented tolerance.
//
// hw.go is the performance/area model of the same microarchitecture: a
// dispatcher feeding M worker units (each with several hash engines), a
// pipelined bitonic selection unit, and a backtrack memory. The model
// counts cycles per decoding step and converts them to decoded
// throughput at a given clock, reproducing the prototype's reported
// numbers: ≈10 Mbit/s on the XUPV5 FPGA and ≈50 Mbit/s synthesized for
// TSMC 65 nm. It is an estimator, not an RTL simulator, with constants
// calibrated to the two published operating points.
package hw

import (
	"fmt"
	"math"
)

// Config describes one hardware decoder design point.
type Config struct {
	// ClockMHz is the decoder clock.
	ClockMHz float64
	// Workers is the number of parallel node-exploration units (M).
	Workers int
	// HashUnitsPerWorker is the number of hash engines per worker; each
	// computes one one-at-a-time hash per cycle (h or RNG, §B).
	HashUnitsPerWorker int
	// B, K are the code parameters (beam width, bits per spine value).
	B, K int
	// Passes is the number of passes L whose symbols the branch cost
	// accumulates (the decoder's work grows with L; rate k/L fixes the
	// decoded throughput together with the symbol rate).
	Passes int
	// NBits is the code block size (the prototype used 192-bit blocks
	// over the air and supports 1024-bit blocks).
	NBits int
	// SelectWidth is the number of scored candidates the selection unit
	// absorbs per cycle (the bitonic merge width, M in the Appendix).
	SelectWidth int
}

// FPGA returns the XUPV5 prototype's approximate design point (d=1
// decoder, B=4, k=4, n=192 at a 50 MHz decoder clock), which the model
// places at the paper's reported ≈10 Mbit/s.
func FPGA() Config {
	return Config{
		ClockMHz: 50, Workers: 8, HashUnitsPerWorker: 2,
		B: 4, K: 4, Passes: 2, NBits: 192, SelectWidth: 8,
	}
}

// ASIC returns the TSMC 65 nm synthesis point the paper estimates at
// ≈50 Mbit/s (same microarchitecture at ≈5× the FPGA clock).
func ASIC() Config {
	c := FPGA()
	c.ClockMHz = 250
	return c
}

func (c Config) check() {
	if c.Workers < 1 || c.HashUnitsPerWorker < 1 || c.B < 1 || c.K < 1 ||
		c.Passes < 1 || c.NBits < 1 || c.SelectWidth < 1 || c.ClockMHz <= 0 {
		panic("hw: invalid configuration")
	}
	if c.K > 8 {
		panic("hw: k out of range")
	}
}

// NodesPerStep reports the candidates explored per decoding step: B·2^k.
func (c Config) NodesPerStep() int { return c.B << uint(c.K) }

// HashesPerNode reports the hash evaluations needed to score one node:
// one for the spine state plus one RNG evaluation per stored symbol
// (L passes, §4.5; the two c-bit constellation inputs share one RNG
// word, §7.1).
func (c Config) HashesPerNode() int { return 1 + c.Passes }

// ExpansionCycles reports the cycles the worker array needs to score all
// nodes of one step.
func (c Config) ExpansionCycles() float64 {
	perNode := math.Ceil(float64(c.HashesPerNode()) / float64(c.HashUnitsPerWorker))
	nodesPerWave := float64(c.Workers)
	waves := math.Ceil(float64(c.NodesPerStep()) / nodesPerWave)
	return waves * perNode
}

// SelectionCycles reports the cycles the pipelined bitonic selection unit
// needs to absorb the step's candidates. Each cycle it merges SelectWidth
// fresh candidates with the running best-B register (Appendix B: "sorts
// the M candidates delivered in a given cycle … merges those with the B
// from this cycle"); the pipeline drains log2(B)+1 stages at the end.
func (c Config) SelectionCycles() float64 {
	absorb := math.Ceil(float64(c.NodesPerStep()) / float64(c.SelectWidth))
	drain := math.Ceil(math.Log2(float64(c.B))) + 1
	return absorb + drain
}

// CyclesPerStep reports the per-step cycle count. Expansion and selection
// are pipelined (scored candidates stream into the selection unit), so a
// step costs max(expansion, selection) plus a small handoff.
func (c Config) CyclesPerStep() float64 {
	c.check()
	const handoff = 2
	return math.Max(c.ExpansionCycles(), c.SelectionCycles()) + handoff
}

// DecodeCycles reports the cycles to decode one code block: n/k steps
// plus the final sort and backtrack walk.
func (c Config) DecodeCycles() float64 {
	steps := math.Ceil(float64(c.NBits) / float64(c.K))
	backtrack := steps // one pointer chase per step
	finalSort := float64(c.B)
	return steps*c.CyclesPerStep() + backtrack + finalSort
}

// ThroughputMbps reports decoded information throughput at the configured
// clock, assuming the decoder is the bottleneck (the §B prototype
// overlaps decoding with symbol reception).
func (c Config) ThroughputMbps() float64 {
	cycles := c.DecodeCycles()
	blocksPerSec := c.ClockMHz * 1e6 / cycles
	return blocksPerSec * float64(c.NBits) / 1e6
}

// Area models the silicon area in mm² at 65 nm from component counts,
// calibrated so the FPGA design point synthesizes to the paper's
// 0.60 mm² (vs 0.12 mm² for Viterbi). Hash engines dominate.
func (c Config) Area() float64 {
	const (
		hashUnit  = 0.019 // mm² per one-at-a-time engine incl. datapath
		workerOH  = 0.018 // per-worker control, subtract/square/accumulate
		selectPer = 0.010 // per selection-lane compare/exchange column
		fixed     = 0.08  // dispatcher, backtrack memory, SRAM interface
	)
	return fixed +
		float64(c.Workers*c.HashUnitsPerWorker)*hashUnit +
		float64(c.Workers)*workerOH +
		float64(c.SelectWidth)*selectPer
}

// String summarizes the design point.
func (c Config) String() string {
	return fmt.Sprintf("hw{%.0fMHz M=%d×%d B=%d k=%d L=%d n=%d → %.1f Mb/s, %.2f mm²}",
		c.ClockMHz, c.Workers, c.HashUnitsPerWorker, c.B, c.K, c.Passes,
		c.NBits, c.ThroughputMbps(), c.Area())
}
